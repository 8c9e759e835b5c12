(* Test kernels shared by the engine suites (test_congest, test_trace):
   the message type, an inbox reader, and a ping/echo kernel over a
   star.  A kernel keeps its per-node state in arrays of its own module,
   so every functor application is a fresh run; test graphs have at most
   64 nodes. *)

open Congest.Compiled

module M = struct
  type t = Int of int

  let bits (Int v) = Congest.Bits.int_bits ~universe:(abs v + 2)
end

module type NET = NET with type msg = M.t

module Inbox (N : NET) = struct
  (* A round's inbox as (sender, value) pairs, in delivery order. *)
  let rec list ctx i =
    if N.inbox_is_empty i then []
    else
      let (M.Int x) = N.inbox_msg ctx i in
      (N.inbox_sender ctx i, x) :: list ctx (N.inbox_next ctx i)

  let sum ctx i = List.fold_left (fun acc (_, x) -> acc + x) 0 (list ctx i)
end

(* Staggered ping/echo over a star: the hub (node 0) sleeps [pause]
   rounds, pings every leaf with 5 and waits up to [hub_wait] rounds for
   the echoes, which it keeps in [echoes]; a leaf waits up to
   [leaf_wait] rounds for the ping, echoes twice its value and halts one
   round later, leaving the ping's value in [pinged] (-1 if none came).
   Parking, waking on arrival, traffic and quiescent spans the engine
   can fast-forward. *)
module Star_ping (P : sig
  val pause : int
  val hub_wait : int
  val leaf_wait : int
end)
(N : NET) =
struct
  module I = Inbox (N)

  let echoes = ref []
  let pinged = Array.make 64 None

  let start _ v = Park (if v = 0 then P.pause else P.leaf_wait)

  let resume ctx v inbox =
    if v = 0 then
      if N.round ctx = P.pause then begin
        N.broadcast ctx (M.Int 5);
        Park P.hub_wait
      end
      else begin
        echoes := I.list ctx inbox;
        Halt
      end
    else if pinged.(v) <> None then Halt
    else
      match I.list ctx inbox with
      | (0, x) :: _ ->
          N.send ctx ~dest:0 (M.Int (2 * x));
          pinged.(v) <- Some x;
          Park 1
      | _ ->
          pinged.(v) <- Some (-1);
          Halt
end
