(* Wire messages of the partition sub-protocols.  Payloads are flat int
   lists; the [tag] identifies the sub-step so that lockstep violations
   surface as assertion failures instead of silent cross-talk. *)

type t =
  | Root of int  (* neighbor-part-root refresh *)
  | Down of int * int list  (* tag, payload: broadcast along part trees *)
  | Up of int * int list  (* tag, payload: convergecast along part trees *)
  | Bdry of int * int list  (* tag, payload: across cut edges *)

let formula_cost v = 2 + Congest.Bits.int_bits ~universe:(abs v + 2)

(* Every payload int is priced at every hop, so magnitudes up to
   [table_radius] come from a table; the formula prices the rest. *)
let table_radius = 1 lsl 12

let cost_table =
  Array.init ((2 * table_radius) + 1) (fun i -> formula_cost (i - table_radius))

let int_cost v =
  if v >= -table_radius && v <= table_radius then
    cost_table.(v + table_radius)
  else formula_cost v

let rec list_cost_from acc = function
  | [] -> acc
  | v :: rest -> list_cost_from (acc + int_cost v) rest

let list_cost l = list_cost_from 0 l

let bits = function
  | Root r -> 4 + int_cost r
  | Down (t, l) | Up (t, l) | Bdry (t, l) -> 4 + int_cost t + list_cost l
