(** The kernel interface: how every protocol of the tester is written.

    A {e kernel} is a lockstep protocol written as a pair of hooks over
    a {!NET}: [start] at every node in round 0, then [resume] with the
    node's inbox at each round in which the node is due, each hook
    answering with a {!step}.  One executor runs kernels,
    [Engine.Make.run_kernel]: a parked node waits in a deadline wheel,
    a round steps exactly its due nodes (ascending ids, sharded over
    worker domains in contiguous blocks), and the fault layer acts on
    delivery.  Kernels stay functors over {!NET} so that other
    executors can run the same code: the test suite keeps a naive
    serial reference executor that every kernel shape is checked
    against.

    The name is historical: this module once also held a second,
    serial "compiled" executor, which the engine's wheel replaced. *)

(** The value of [planartest --mode] and of the [?mode] argument
    [Harness.run] and [Planarity_tester.run] still accept.  There is one
    executor, so a mode selects nothing: every run is the same. *)
type mode = Fiber | Compiled

val mode_to_string : mode -> string

(** Accepted spellings: ["fiber"], ["compiled"]. *)
val mode_of_string : string -> mode option

(** What a node does next, returned by a kernel's [start] / [resume]
    hooks: [Park k] re-enters the node at the first round with a non-empty
    inbox, or unconditionally after [k] rounds ([k <= 0] means 1); [Halt]
    ends the node. *)
type step = Halt | Park of int

(** The node-side operations a kernel may use, provided by
    [Engine.Make]. *)
module type NET = sig
  type ctx
  type msg

  val send : ctx -> dest:int -> msg -> unit
  val send_port : ctx -> dest:int -> eid:int -> msg -> unit
  val broadcast : ctx -> msg -> unit
  val round : ctx -> int

  (** A cursor over a round's inbox as handed to [resume]: every
      (sender, message) delivered this round, in delivery order
      (ascending sender, reverse send order within a sender).  Only
      valid until the hook returns.  Walk it in a loop:

      {[
        let cur = ref inbox in
        while not (N.inbox_is_empty !cur) do
          f (N.inbox_sender ctx !cur) (N.inbox_msg ctx !cur);
          cur := N.inbox_next ctx !cur
        done
      ]}

      Reading an inbox this way allocates nothing: the engine's cursor
      is a slab index. *)
  type inbox

  (** [true] past the last delivery. *)
  val inbox_is_empty : inbox -> bool

  (** The sender and message under a non-empty cursor. *)
  val inbox_sender : ctx -> inbox -> int

  val inbox_msg : ctx -> inbox -> msg

  (** The cursor one delivery further. *)
  val inbox_next : ctx -> inbox -> inbox
end

module type MESSAGE = sig
  type t

  val bits : t -> int
end
