type mode = Fiber | Compiled

let mode_to_string = function Fiber -> "fiber" | Compiled -> "compiled"

let mode_of_string = function
  | "fiber" -> Some Fiber
  | "compiled" -> Some Compiled
  | _ -> None

type step = Halt | Park of int

module type NET = sig
  type ctx
  type msg

  val send : ctx -> dest:int -> msg -> unit
  val send_port : ctx -> dest:int -> eid:int -> msg -> unit
  val broadcast : ctx -> msg -> unit
  val round : ctx -> int

  type inbox

  val inbox_is_empty : inbox -> bool
  val inbox_sender : ctx -> inbox -> int
  val inbox_msg : ctx -> inbox -> msg
  val inbox_next : ctx -> inbox -> inbox
end

module type MESSAGE = sig
  type t

  val bits : t -> int
end
