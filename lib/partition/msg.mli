(** Wire messages shared by the partition and tester sub-protocols.
    Payloads are flat int lists; the [tag] identifies the sub-step so that
    lockstep violations surface as failures instead of silent
    cross-talk. *)

(** Host values a message can carry in place of their int encoding.
    Each protocol that uses {!Held} adds its own constructor. *)
type held = ..

(** A host value with the {!list_cost} of the int list it stands for,
    computed once by whoever builds it.  A [priced] value is immutable
    once sent: relays forward it as is and receivers only read it. *)
type priced = { value : held; cost : int }

type t =
  | Root of int  (** neighbor-part-root refresh *)
  | Down of int * int list  (** (tag, payload): broadcast along part trees *)
  | Up of int * int list  (** (tag, payload): convergecast along part trees *)
  | Bdry of int * int list  (** (tag, payload): across cut or intra edges *)
  | Held of int * priced
      (** (tag, value): priced on the wire exactly as [Up]/[Down] of the
          int list [value] encodes, at O(1) host cost per hop *)

(** Wire size: a small header plus the cost of each integer at its own
    magnitude ([cost] for a {!Held} value). *)
val bits : t -> int

(** Bits of one payload integer: [2 + Bits.int_bits ~universe:(|v| + 2)],
    read from a table for [|v| <= 4096]. *)
val int_cost : int -> int

val list_cost : int list -> int

(** Magnitudes up to this one are priced from a table. *)
val table_radius : int
