open Graphlib

module Eng = State.Eng

(* [traced st label f] wraps one primitive's engine run in a trace span
   when the state carries a trace; spans nest under the current trace
   phase and cost nothing when tracing is off. *)
let traced (st : State.t) label f =
  match st.State.trace with
  | Some tr -> Congest.Trace.span tr label f
  | None -> f ()

(* Every primitive below is one kernel (see [Congest.Compiled.step])
   written against [Congest.Compiled.NET] and run by [Eng.run_kernel];
   none starts a fiber. *)

(* Kernel hooks have no [reject], so a run carries no rejections.  A run
   that cannot complete under an active fault policy (a crash-stopped
   node, or [max_rounds]) raises [Congest.Faults.Degraded].  Charge
   before judging completion: a degraded run's rounds and fault counters
   must still land in [st.stats] so higher layers can report honestly
   what happened on the wire. *)
let charge (st : State.t) stats ~completed =
  Congest.Stats.add_into st.State.stats stats;
  if not completed then
    if Congest.Faults.active st.State.faults then
      raise
        (Congest.Faults.Degraded
           "Prims: node program did not complete under fault injection")
    else failwith "Prims: node program did not complete"

let execute (st : State.t) ~start ~resume =
  let res =
    Eng.run_kernel ?telemetry:st.State.telemetry ?trace:st.State.trace
      ~domains:st.State.domains ~fast_forward:st.State.fast_forward
      ?faults:st.State.faults ?on_round:st.State.on_round
      ~pool:st.State.pool st.State.graph ~start ~resume
  in
  charge st res.Eng.stats ~completed:res.Eng.completed

(* How a tree primitive's payload rides a message: a flat int list in
   [Down]/[Up], or a priced host value in [Held].  [unwrap] only
   projects; the kernels check the tag first. *)
type 'p carrier = { wrap : int -> 'p -> Msg.t; unwrap : Msg.t -> 'p }

let down =
  {
    wrap = (fun t l -> Msg.Down (t, l));
    unwrap = (function Msg.Down (_, l) -> l | _ -> assert false);
  }

let up =
  {
    wrap = (fun t l -> Msg.Up (t, l));
    unwrap = (function Msg.Up (_, l) -> l | _ -> assert false);
  }

let held =
  {
    wrap = (fun t p -> Msg.Held (t, p));
    unwrap = (function Msg.Held (_, p) -> p | _ -> assert false);
  }

let tag_of = function
  | Msg.Down (t, _) | Msg.Up (t, _) | Msg.Bdry (t, _) | Msg.Held (t, _) -> t
  | Msg.Root _ -> -1

let check_tag prim ~tag msg =
  let t = tag_of msg in
  if t <> tag then
    failwith (Printf.sprintf "%s: lockstep violation (tag %d vs %d)" prim t tag)

(* [N.run] executes a kernel over the state's graph and charges the run
   to [st]. *)
module Kernels (N : sig
  include Congest.Compiled.NET with type msg = Msg.t

  val run :
    State.t ->
    start:(ctx -> int -> Congest.Compiled.step) ->
    resume:(ctx -> int -> inbox -> Congest.Compiled.step) ->
    unit
end) =
struct
  open Congest.Compiled

  (* Every kernel reads its inbox through the [N.inbox_*] cursor in a
     [while] loop and builds its [Park] values once per call, so a
     node that is started or resumed with nothing to do allocates
     nothing; what a kernel allocates is its messages. *)
  let refresh_roots (st : State.t) =
    let g = st.State.graph in
    (* One [Root] value per sender goes out on every port. *)
    let start ctx v =
      let deg = Graph.degree g v in
      if deg > 0 then begin
        let msg = Msg.Root (State.node st v).State.part_root in
        for port = 0 to deg - 1 do
          N.send_port ctx ~dest:(Graph.nbr g v port)
            ~eid:(Graph.incident_eid g v port)
            msg
        done
      end;
      Park 1
    and resume ctx v inbox =
      let nd = State.node st v in
      (* Inbox senders arrive in ascending order, matching port order, so
         one pointer walks both in a single merged pass. *)
      let port = ref 0 and cur = ref inbox in
      while not (N.inbox_is_empty !cur) do
        (match N.inbox_msg ctx !cur with
        | Msg.Root r ->
            let from = N.inbox_sender ctx !cur in
            while Graph.nbr g v !port <> from do
              incr port
            done;
            nd.State.nbr_root.(!port) <- r
        | _ -> assert false);
        cur := N.inbox_next ctx !cur
      done;
      Halt
    in
    N.run st ~start ~resume

  (* A relay forwards the very message value it received: every hop of
     one part's broadcast carries one physical message, which the
     delivery pass prices once per round. *)
  let rec relay ctx msg = function
    | [] -> ()
    | c :: rest ->
        N.send ctx ~dest:c msg;
        relay ctx msg rest

  (* [bcast] and [converge] park for the whole budget: the only rounds
     that change anything are the ones a message arrives in, so a node
     is re-entered on arrivals only (and the executor may fast-forward
     network-wide quiet spans) without altering the round schedule —
     every node still finishes exactly at round [budget]. *)
  let bcast c (st : State.t) ~budget ~tag ~at_root ~on_receive =
    let park = if budget > 0 then Park budget else Halt in
    let start ctx v =
      (if State.is_root st v then
         let nd = State.node st v in
         match at_root nd with
         | Some payload ->
             on_receive nd payload;
             relay ctx (c.wrap tag payload) nd.State.children
         | None -> ());
      park
    and resume ctx v inbox =
      let nd = State.node st v in
      let cur = ref inbox in
      while not (N.inbox_is_empty !cur) do
        let msg = N.inbox_msg ctx !cur in
        check_tag "bcast" ~tag msg;
        assert (N.inbox_sender ctx !cur = nd.State.parent);
        on_receive nd (c.unwrap msg);
        relay ctx msg nd.State.children;
        cur := N.inbox_next ctx !cur
      done;
      let left = budget - N.round ctx in
      if left > 0 then Park left else Halt
    in
    N.run st ~start ~resume

  (* Leaf first: a leaf sends its value (a root hands it to [at_root])
     straight from [start], so only an inner node keeps an accumulator,
     in [accs], which exists only when some node has a child.
     [st.converge_left] counts each node's missing children, [-1] once
     the node has sent; a sender is a child iff its parent is the
     receiver, an O(1) check. *)
  let converge c (st : State.t) ~budget ~tag ~init ~combine ~encode ~decode
      ~at_root =
    let left = st.State.converge_left in
    let accs =
      if Array.exists (fun nd -> nd.State.children <> []) st.State.nodes then
        Array.make (Array.length st.State.nodes) None
      else [||]
    in
    let finish ctx v (nd : State.node) acc =
      left.(v) <- -1;
      if nd.State.parent >= 0 then
        N.send ctx ~dest:nd.State.parent (c.wrap tag (encode acc))
      else at_root nd acc
    in
    let park v rounds =
      if rounds > 0 then Park rounds
      else if left.(v) >= 0 then
        failwith "converge: budget too small for tree depth"
      else Halt
    in
    let park_budget = Park budget in
    let start ctx v =
      let nd = State.node st v in
      (match nd.State.children with
      | [] -> finish ctx v nd (init nd)
      | children ->
          left.(v) <- List.length children;
          accs.(v) <- Some (init nd));
      if budget > 0 then park_budget else park v 0
    and resume ctx v inbox =
      (* A deadline wake-up with no traffic changes nothing. *)
      if not (N.inbox_is_empty inbox) then begin
        let nd = State.node st v in
        match if left.(v) > 0 then accs.(v) else None with
        | None ->
            (* A leaf, or a node that has sent: no child is left. *)
            check_tag "converge" ~tag (N.inbox_msg ctx inbox);
            failwith "converge: message from non-child"
        | Some a ->
            let acc = ref a and cur = ref inbox in
            while not (N.inbox_is_empty !cur) do
              let msg = N.inbox_msg ctx !cur in
              check_tag "converge" ~tag msg;
              if (State.node st (N.inbox_sender ctx !cur)).State.parent <> v
              then failwith "converge: message from non-child";
              acc := combine !acc (decode (c.unwrap msg));
              left.(v) <- left.(v) - 1;
              cur := N.inbox_next ctx !cur
            done;
            if left.(v) = 0 then begin
              accs.(v) <- None;
              finish ctx v nd !acc
            end
            else accs.(v) <- Some !acc
      end;
      park v (budget - N.round ctx)
    in
    N.run st ~start ~resume

  (* The payload is computed once per sender, at its first cut port, and
     that one [Bdry] value goes out on every addressed cut port: the
     delivery pass prices a run of physically equal messages
     once.  Payloads and filters are pure, so evaluating them once per
     sender instead of once per port changes nothing on the wire. *)
  let rec first_cut (nd : State.node) port deg =
    if port >= deg || nd.State.nbr_root.(port) <> nd.State.part_root then port
    else first_cut nd (port + 1) deg

  let boundary (st : State.t) ~tag ~to_nbr ~payload ~on_receive =
    let g = st.State.graph in
    let start ctx v =
      let nd = State.node st v in
      let deg = Graph.degree g v in
      let port = first_cut nd 0 deg in
      (if port < deg then
         match payload nd with
         | Some pl ->
             let msg = Msg.Bdry (tag, pl) in
             for port = port to deg - 1 do
               if nd.State.nbr_root.(port) <> nd.State.part_root then begin
                 let nbr = Graph.nbr g v port in
                 if to_nbr nd nbr then
                   N.send_port ctx ~dest:nbr
                     ~eid:(Graph.incident_eid g v port)
                     msg
               end
             done
         | None -> ());
      Park 1
    and resume ctx v inbox =
      let nd = State.node st v in
      let cur = ref inbox in
      while not (N.inbox_is_empty !cur) do
        (match N.inbox_msg ctx !cur with
        | Msg.Bdry (t, pl) ->
            if t <> tag then
              failwith
                (Printf.sprintf "boundary: lockstep violation (tag %d vs %d)"
                   t tag);
            on_receive nd ~nbr:(N.inbox_sender ctx !cur) pl
        | _ -> assert false);
        cur := N.inbox_next ctx !cur
      done;
      Halt
    in
    N.run st ~start ~resume

  (* [bcast]'s schedule with caller-written hooks.  The hooks send
     through a closure over [ctx]; the engine hands every hook that one
     domain steps the same [ctx] (one per arena), so [bound] caches one
     closure per ctx, built on its first use.  A ctx is stepped by one
     domain at a time and the compare-and-set loses no entry, so the
     cache holds at most one closure per domain. *)
  let wave (st : State.t) ~budget ~start ~receive ~settle =
    let park = if budget > 0 then Park budget else Halt in
    let bound = Atomic.make [] in
    let rec sender ctx = lookup ctx (Atomic.get bound)
    and lookup ctx = function
      | (c, send) :: rest -> if c == ctx then send else lookup ctx rest
      | [] ->
          let l = Atomic.get bound in
          let send ~dest msg = N.send ctx ~dest msg in
          if Atomic.compare_and_set bound l ((ctx, send) :: l) then send
          else sender ctx
    in
    let start ctx v =
      start (sender ctx) (State.node st v);
      park
    and resume ctx v inbox =
      if not (N.inbox_is_empty inbox) then begin
        let send = sender ctx and nd = State.node st v in
        let cur = ref inbox in
        while not (N.inbox_is_empty !cur) do
          receive send nd ~from:(N.inbox_sender ctx !cur) (N.inbox_msg ctx !cur);
          cur := N.inbox_next ctx !cur
        done;
        settle send nd
      end;
      let left = budget - N.round ctx in
      if left > 0 then Park left else Halt
    in
    N.run st ~start ~resume
end

module K = Kernels (struct
  include Eng

  let run = execute
end)

let refresh_roots st =
  traced st "refresh_roots" @@ fun () ->
  K.refresh_roots st

let bcast_via c st ~budget ~tag ~at_root ~on_receive =
  traced st "bcast" @@ fun () ->
  K.bcast c st ~budget ~tag ~at_root ~on_receive

let bcast st ~budget ~tag ~at_root ~on_receive =
  bcast_via down st ~budget ~tag ~at_root ~on_receive

let bcast_held st ~budget ~tag ~at_root ~on_receive =
  bcast_via held st ~budget ~tag ~at_root ~on_receive

let converge_via c st ~budget ~tag ~init ~combine ~encode ~decode ~at_root =
  traced st "converge" @@ fun () ->
  K.converge c st ~budget ~tag ~init ~combine ~encode ~decode ~at_root

let converge st ~budget ~tag ~init ~combine ~encode ~decode ~at_root =
  converge_via up st ~budget ~tag ~init ~combine ~encode ~decode ~at_root

let converge_held st ~budget ~tag ~init ~combine ~encode ~decode ~at_root =
  converge_via held st ~budget ~tag ~init ~combine ~encode ~decode ~at_root

let every_nbr _ _ = true

let boundary ?(to_nbr = every_nbr) st ~tag ~payload ~on_receive =
  traced st "boundary" @@ fun () ->
  K.boundary st ~tag ~to_nbr ~payload ~on_receive

type send = dest:int -> Msg.t -> unit

let no_settle _ _ = ()

let wave ?(settle = no_settle) st ~budget ~start ~receive =
  K.wave st ~budget ~start ~receive ~settle
