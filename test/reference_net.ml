(* A deliberately naive serial executor of kernels: the reference the
   engine ([Congest.Engine.Make.run_kernel]) is checked against.  It
   keeps nothing the engine optimises — no deadline wheel, no
   fast-forward, no pools, no sharding, no fault layer — and costs O(n)
   per round: every round delivers the previous round's sends (senders
   ascending, each sender's in reverse send order), charges bandwidth
   per directed edge, then steps in ascending id order every live node
   whose inbox is non-empty or whose deadline has come.

   It fills the same [Congest.Stats.t] as the engine: with fast-forward
   off an engine run must match it byte for byte, and with fast-forward
   on in every field but [fast_forwarded_rounds] (a skipped round
   charges one frame, exactly what stepping it empty charges here). *)

open Graphlib

module Make (Msg : Congest.Compiled.MESSAGE) = struct
  type msg = Msg.t

  type ctx = {
    g : Graph.t;
    mutable cur : int;
    mutable now : int;
    outq : (int * int * Msg.t) list array;  (* per sender, newest first *)
  }

  let round c = c.now

  (* The directed edge [cur -> dest] of undirected edge [e]. *)
  let send_on c dest e msg =
    let de = (2 * e) + if c.cur < dest then 0 else 1 in
    c.outq.(c.cur) <- (dest, de, msg) :: c.outq.(c.cur)

  let send c ~dest msg =
    match Graph.find_edge c.g c.cur dest with
    | e -> send_on c dest e msg
    | exception Not_found ->
        invalid_arg
          (Printf.sprintf "Reference_net.send: %d is not a neighbor of %d" dest
             c.cur)

  let send_port c ~dest ~eid msg = send_on c dest eid msg

  let broadcast c msg =
    Array.iter (fun (dest, e) -> send_on c dest e msg) (Graph.incident c.g c.cur)

  type inbox = (int * Msg.t) list

  let inbox_is_empty = function [] -> true | _ :: _ -> false
  let inbox_sender _ l = fst (List.hd l)
  let inbox_msg _ l = snd (List.hd l)
  let inbox_next _ l = List.tl l

  type result = { stats : Congest.Stats.t; completed : bool }

  (* Same defaults as the engine: bandwidth [Bits.default_bandwidth n],
     at most [max_rounds] rounds.  A hook exception propagates at once. *)
  let run ?bandwidth ?(max_rounds = 1_000_000) g ~start ~resume =
    let n = Graph.n g in
    let bw =
      match bandwidth with
      | Some b -> b
      | None -> Congest.Bits.default_bandwidth n
    in
    let s = Congest.Stats.create ~bandwidth:bw in
    let c = { g; cur = -1; now = 0; outq = Array.make n [] } in
    (* Absolute deadline per live node, -1 once halted. *)
    let wake = Array.make n (-1) in
    let next v = function
      | Congest.Compiled.Park k -> wake.(v) <- c.now + max 1 k
      | Congest.Compiled.Halt -> wake.(v) <- -1
    in
    for v = 0 to n - 1 do
      c.cur <- v;
      next v (start c v)
    done;
    let live () = Array.exists (fun w -> w >= 0) wake in
    let edge_bits = Hashtbl.create 64 in
    while live () && s.Congest.Stats.rounds < max_rounds do
      s.rounds <- s.rounds + 1;
      c.now <- s.rounds;
      let inbox = Array.make n [] in  (* newest first *)
      Hashtbl.reset edge_bits;
      for v = 0 to n - 1 do
        List.iter
          (fun (dest, de, msg) ->
            let b = Msg.bits msg in
            s.messages <- s.messages + 1;
            s.total_bits <- s.total_bits + b;
            let old = Option.value ~default:0 (Hashtbl.find_opt edge_bits de) in
            Hashtbl.replace edge_bits de (old + b);
            inbox.(dest) <- (v, msg) :: inbox.(dest))
          c.outq.(v);
        c.outq.(v) <- []
      done;
      let frames =
        Hashtbl.fold
          (fun _ b frames ->
            s.max_edge_bits <- max s.max_edge_bits b;
            if b > bw then begin
              s.oversized <- s.oversized + 1;
              max frames (Congest.Stats.frames ~bandwidth:bw b)
            end
            else frames)
          edge_bits 1
      in
      s.charged_rounds <- s.charged_rounds + frames;
      for v = 0 to n - 1 do
        let ib = List.rev inbox.(v) in
        if wake.(v) >= 0 && (ib <> [] || wake.(v) <= c.now) then begin
          c.cur <- v;
          next v (resume c v ib)
        end
      done
    done;
    { stats = s; completed = not (live ()) }
end
