open Graphlib

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let q = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Bits                                                                *)
(* ------------------------------------------------------------------ *)

let test_int_bits () =
  check ci "universe 2" 1 (Congest.Bits.int_bits ~universe:2);
  check ci "universe 3" 2 (Congest.Bits.int_bits ~universe:3);
  check ci "universe 6" 3 (Congest.Bits.int_bits ~universe:6);
  check ci "universe 8" 3 (Congest.Bits.int_bits ~universe:8);
  check ci "universe 9" 4 (Congest.Bits.int_bits ~universe:9);
  check ci "universe 1024" 10 (Congest.Bits.int_bits ~universe:1024)

(* [int_bits] is a constant-time bit length; it must price every universe
   exactly like the per-bit loop it replaced. *)
let test_int_bits_matches_loop () =
  let loop ~universe =
    let u = max universe 2 in
    let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
    go 0 (u - 1)
  in
  let probes = ref [ min_int; -1; 0; 1; 2; 3; max_int - 1; max_int ] in
  for k = 1 to 61 do
    let p = 1 lsl k in
    probes := (p - 1) :: p :: (p + 1) :: !probes
  done;
  List.iter
    (fun u ->
      check ci
        (Printf.sprintf "universe %d" u)
        (loop ~universe:u)
        (Congest.Bits.int_bits ~universe:u))
    !probes

let test_id_bits () =
  check ci "n=1" 1 (Congest.Bits.id_bits 1);
  check ci "n=1000" 10 (Congest.Bits.id_bits 1000)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

module M = struct
  type t = Int of int

  let bits (Int v) = Congest.Bits.int_bits ~universe:(abs v + 2)
end

module E = Congest.Engine.Make (M)

let test_no_messages_terminates () =
  let g = Generators.path 4 in
  let res = E.run g (fun ctx -> E.my_id ctx) in
  check cb "completed" true res.E.completed;
  check ci "no rounds needed" 0 res.E.stats.Congest.Stats.rounds;
  Array.iteri
    (fun v o -> check (Alcotest.option ci) "output" (Some v) o)
    res.E.outputs

let test_single_exchange () =
  (* Each node learns the sum of its neighbors' ids. *)
  let g = Generators.cycle 5 in
  let res =
    E.run g (fun ctx ->
        E.broadcast ctx (M.Int (E.my_id ctx));
        List.fold_left (fun acc (_, M.Int v) -> acc + v) 0 (E.sync ctx))
  in
  check cb "completed" true res.E.completed;
  check ci "one round" 1 res.E.stats.Congest.Stats.rounds;
  Array.iteri
    (fun v o ->
      let expect = ((v + 1) mod 5) + ((v + 4) mod 5) in
      check (Alcotest.option ci) "sum of neighbors" (Some expect) o)
    res.E.outputs

let test_bfs_rounds_match_eccentricity () =
  let g = Generators.grid 6 7 in
  let ecc = Traversal.eccentricity g 0 in
  let res =
    E.run g (fun ctx ->
        let level = ref (if E.my_id ctx = 0 then 0 else -1) in
        if !level = 0 then E.broadcast ctx (M.Int 0);
        let rounds = ref 0 in
        (try
           while !level = -1 do
             incr rounds;
             if !rounds > 100 then raise Exit;
             List.iter
               (fun (_, M.Int d) ->
                 if !level = -1 then begin
                   level := d + 1;
                   E.broadcast ctx (M.Int !level)
                 end)
               (E.sync ctx)
           done
         with Exit -> ());
        !level)
  in
  let dist = Traversal.dist_from g 0 in
  Array.iteri
    (fun v o -> check (Alcotest.option ci) "bfs level" (Some dist.(v)) o)
    res.E.outputs;
  check cb "rounds ~ eccentricity" true
    (res.E.stats.Congest.Stats.rounds >= ecc)

let test_send_non_neighbor_rejected () =
  let g = Generators.path 3 in
  try
    ignore
      (E.run g (fun ctx ->
           if E.my_id ctx = 0 then E.send ctx ~dest:2 (M.Int 1)));
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_max_rounds_timeout () =
  let g = Generators.path 2 in
  let res =
    E.run ~max_rounds:5 g (fun ctx ->
        while true do
          ignore (E.sync ctx)
        done)
  in
  check cb "not completed" false res.E.completed;
  check ci "stopped at limit" 5 res.E.stats.Congest.Stats.rounds

let triple = Alcotest.triple ci ci Alcotest.string

(* A node's random stream, derived from a run seed and its id. *)
let node_rng seed ctx = Random.State.make [| seed; E.my_id ctx; 0x5eed |]

let test_message_accounting () =
  let g = Generators.path 2 in
  let res =
    E.run g (fun ctx ->
        E.broadcast ctx (M.Int 1);
        ignore (E.sync ctx))
  in
  check ci "two messages" 2 res.E.stats.Congest.Stats.messages;
  check cb "bits counted" true (res.E.stats.Congest.Stats.total_bits > 0)

let test_bandwidth_charging () =
  (* Oversized traffic on one edge in one round is charged extra rounds. *)
  let g = Generators.path 2 in
  let res =
    E.run ~bandwidth:8 g (fun ctx ->
        if E.my_id ctx = 0 then
          for _ = 1 to 10 do
            E.send ctx ~dest:1 (M.Int 1000)
          done;
        ignore (E.sync ctx))
  in
  check ci "one logical round" 1 res.E.stats.Congest.Stats.rounds;
  check cb "oversized flagged" true (res.E.stats.Congest.Stats.oversized > 0);
  check cb "charged more" true
    (res.E.stats.Congest.Stats.charged_rounds
    > res.E.stats.Congest.Stats.rounds)

let test_determinism () =
  let g = Generators.grid 4 4 in
  let run () =
    E.run g (fun ctx ->
        let r = Random.State.int (node_rng 3 ctx) 1000 in
        E.broadcast ctx (M.Int r);
        List.fold_left (fun acc (_, M.Int v) -> acc + v) r (E.sync ctx))
  in
  let a = run () and b = run () in
  Array.iteri
    (fun v o -> check (Alcotest.option ci) "same output" o b.E.outputs.(v))
    a.E.outputs

let test_inbox_sorted_by_sender () =
  let g = Generators.star 6 in
  let res =
    E.run g (fun ctx ->
        E.broadcast ctx (M.Int (E.my_id ctx));
        let inbox = E.sync ctx in
        List.map fst inbox)
  in
  match res.E.outputs.(0) with
  | Some senders ->
      check (Alcotest.list ci) "sorted senders" [ 1; 2; 3; 4; 5 ] senders
  | None -> Alcotest.fail "no output"

let test_idle () =
  let g = Generators.path 3 in
  let res =
    E.run g (fun ctx ->
        E.idle ctx 7;
        E.round ctx)
  in
  check ci "rounds" 7 res.E.stats.Congest.Stats.rounds;
  Array.iter
    (fun o -> check (Alcotest.option ci) "round counter" (Some 7) o)
    res.E.outputs


let test_strict_mode () =
  let g = Generators.path 2 in
  try
    ignore
      (E.run ~bandwidth:4 ~strict:true g (fun ctx ->
           if E.my_id ctx = 0 then E.send ctx ~dest:1 (M.Int 100000);
           ignore (E.sync ctx)));
    Alcotest.fail "expected strict-mode failure"
  with Failure _ -> ()

let test_strict_mode_ok_within_budget () =
  let g = Generators.path 2 in
  let res =
    E.run ~bandwidth:64 ~strict:true g (fun ctx ->
        E.broadcast ctx (M.Int 3);
        ignore (E.sync ctx))
  in
  check cb "completed" true res.E.completed

(* ------------------------------------------------------------------ *)
(* Lifecycle: every early exit must discontinue suspended nodes        *)
(* ------------------------------------------------------------------ *)

(* Regression: hitting [max_rounds] used to abandon every suspended
   continuation without unwinding it; finalizers never ran. *)
let test_finalizers_run_on_max_rounds () =
  let g = Generators.path 3 in
  let finalized = ref 0 in
  let res =
    E.run ~max_rounds:4 g (fun ctx ->
        Fun.protect
          ~finally:(fun () -> incr finalized)
          (fun () ->
            while true do
              ignore (E.sync ctx)
            done))
  in
  check cb "not completed" false res.E.completed;
  check ci "stopped at limit" 4 res.E.stats.Congest.Stats.rounds;
  check ci "every node finalized" 3 !finalized

(* Regression: a strict-mode bandwidth failure used to leak every live
   continuation of the aborted run. *)
let test_finalizers_run_on_strict_failure () =
  let g = Generators.path 2 in
  let finalized = ref 0 in
  (try
     ignore
       (E.run ~bandwidth:4 ~strict:true g (fun ctx ->
            Fun.protect
              ~finally:(fun () -> incr finalized)
              (fun () ->
                if E.my_id ctx = 0 then E.send ctx ~dest:1 (M.Int 100000);
                ignore (E.sync ctx);
                ignore (E.sync ctx))));
     Alcotest.fail "expected strict-mode failure"
   with Failure _ -> ());
  check ci "every node finalized" 2 !finalized

(* A node program raising mid-run also finalizes the other nodes. *)
let test_finalizers_run_on_node_exception () =
  let g = Generators.path 3 in
  let finalized = ref 0 in
  (try
     ignore
       (E.run g (fun ctx ->
            Fun.protect
              ~finally:(fun () -> incr finalized)
              (fun () ->
                ignore (E.sync ctx);
                if E.my_id ctx = 0 then failwith "boom";
                ignore (E.sync ctx);
                ignore (E.sync ctx))));
     Alcotest.fail "expected node failure"
   with Failure msg -> check Alcotest.string "the node's exception" "boom" msg);
  check ci "every node finalized" 3 !finalized

(* ------------------------------------------------------------------ *)
(* Bandwidth accounting, pinned                                        *)
(* ------------------------------------------------------------------ *)

(* M.Int 1000 costs int_bits ~universe:1002 = 10 bits. *)
let test_charged_rounds_pinned () =
  let g = Generators.path 2 in
  let res =
    E.run ~bandwidth:8 g (fun ctx ->
        if E.my_id ctx = 0 then
          for _ = 1 to 5 do
            E.send ctx ~dest:1 (M.Int 1000)
          done;
        ignore (E.sync ctx);
        if E.my_id ctx = 0 then E.send ctx ~dest:1 (M.Int 1000);
        ignore (E.sync ctx))
  in
  (* Round 1: 50 bits on one edge -> ceil(50/8) = 7 frames.
     Round 2: 10 bits -> 2 frames.  charged = 7 + 2 = rounds + 7 extra. *)
  check ci "rounds" 2 res.E.stats.Congest.Stats.rounds;
  check ci "charged = rounds + extra frames" 9
    res.E.stats.Congest.Stats.charged_rounds;
  check ci "oversized (edge, round) pairs" 2
    res.E.stats.Congest.Stats.oversized;
  check ci "max edge bits" 50 res.E.stats.Congest.Stats.max_edge_bits

let test_max_edge_bits_per_destination () =
  (* A node sending 10 bits to each of 5 neighbors loads each directed
     edge with 10 bits: per-edge maxima must not aggregate across
     destinations. *)
  let g = Generators.star 6 in
  let res =
    E.run ~bandwidth:64 g (fun ctx ->
        if E.my_id ctx = 0 then E.broadcast ctx (M.Int 1000);
        ignore (E.sync ctx))
  in
  check ci "max edge bits = one destination's load" 10
    res.E.stats.Congest.Stats.max_edge_bits;
  check ci "total bits = sum over destinations" 50
    res.E.stats.Congest.Stats.total_bits;
  (* Two messages to the same destination in one round do aggregate. *)
  let res2 =
    E.run ~bandwidth:64 g (fun ctx ->
        if E.my_id ctx = 0 then begin
          E.send ctx ~dest:1 (M.Int 1000);
          E.send ctx ~dest:1 (M.Int 1000)
        end;
        ignore (E.sync ctx))
  in
  check ci "same-edge messages aggregate" 20
    res2.E.stats.Congest.Stats.max_edge_bits

(* ------------------------------------------------------------------ *)
(* Determinism of the delivery path                                    *)
(* ------------------------------------------------------------------ *)

(* Each node records every inbox it ever saw; two runs with the same seed
   must produce structurally identical transcripts (senders sorted,
   same-sender order preserved), including when the runs execute on
   different domains, as under the parallel bench driver. *)
let inbox_transcript seed =
  let g = Generators.grid 5 5 in
  let res =
    E.run g (fun ctx ->
        let rng = node_rng seed ctx in
        let log = ref [] in
        let r = Random.State.int rng 3 + 1 in
        for _ = 1 to r do
          E.broadcast ctx (M.Int (Random.State.int rng 500));
          log := E.sync ctx :: !log
        done;
        List.rev !log)
  in
  (res.E.outputs, res.E.stats.Congest.Stats.charged_rounds)

let test_transcripts_identical () =
  let a = inbox_transcript 11 and b = inbox_transcript 11 in
  check cb "identical transcripts" true (a = b)

let test_transcripts_identical_across_domains () =
  let d1 = Domain.spawn (fun () -> inbox_transcript 11) in
  let d2 = Domain.spawn (fun () -> inbox_transcript 11) in
  let a = Domain.join d1 and b = Domain.join d2 in
  let c = inbox_transcript 11 in
  check cb "domain runs agree" true (a = b);
  check cb "domain run = in-process run" true (a = c)

let test_inbox_sender_order_with_multisend () =
  (* Node 0 sends twice to node 1; node 2 sends once.  The inbox must be
     sorted by sender, with node 0's two messages in reverse send order
     (the documented engine order). *)
  let g = Generators.path 3 in
  let res =
    E.run g (fun ctx ->
        (match E.my_id ctx with
        | 0 ->
            E.send ctx ~dest:1 (M.Int 7);
            E.send ctx ~dest:1 (M.Int 8)
        | 2 -> E.send ctx ~dest:1 (M.Int 9)
        | _ -> ());
        if E.my_id ctx = 1 then
          E.sync ctx |> List.map (fun (s, M.Int v) -> (s, v))
        else [])
  in
  check
    (Alcotest.list (Alcotest.pair ci ci))
    "sorted by sender, same-sender reverse send order"
    [ (0, 8); (0, 7); (2, 9) ]
    (Option.get res.E.outputs.(1))

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(* ------------------------------------------------------------------ *)

let test_telemetry_series_matches_stats () =
  let g = Generators.cycle 6 in
  let tel = Congest.Telemetry.create () in
  let res =
    E.run ~telemetry:tel g (fun ctx ->
        E.broadcast ctx (M.Int (E.my_id ctx));
        ignore (E.sync ctx);
        E.broadcast ctx (M.Int 1);
        ignore (E.sync ctx))
  in
  let phases = Congest.Telemetry.phases tel in
  check ci "one phase" 1 (List.length phases);
  let p = List.hd phases in
  check ci "rounds" res.E.stats.Congest.Stats.rounds p.Congest.Telemetry.rounds;
  check ci "frames = charged rounds" res.E.stats.Congest.Stats.charged_rounds
    p.Congest.Telemetry.frames;
  check ci "bits" res.E.stats.Congest.Stats.total_bits p.Congest.Telemetry.bits;
  check ci "messages" res.E.stats.Congest.Stats.messages
    p.Congest.Telemetry.messages;
  (* The JSON view is well-formed and mentions every phase. *)
  let j = Congest.Telemetry.Json.to_string (Congest.Telemetry.to_json tel) in
  check cb "json has phases" true
    (String.length j > 0 && j.[0] = '{')

let test_telemetry_phase_labels () =
  let tel = Congest.Telemetry.create ~series:false () in
  let g = Generators.path 4 in
  let run_labelled label =
    Congest.Telemetry.phase tel label;
    ignore
      (E.run ~telemetry:tel g (fun ctx ->
           E.broadcast ctx (M.Int 1);
           ignore (E.sync ctx)))
  in
  run_labelled "a";
  run_labelled "b";
  let labels =
    List.map
      (fun (p : Congest.Telemetry.phase_view) -> p.Congest.Telemetry.label)
      (Congest.Telemetry.phases tel)
  in
  check (Alcotest.list Alcotest.string) "labels" [ "a"; "b" ] labels

let test_telemetry_empty_phases_with_ff () =
  (* Empty phases are dropped even when they sit between fast-forwarded
     spans — and a phase whose only content is a fast-forwarded span is
     NOT empty: each skipped round is accounted like the quiescent round
     it replaces. *)
  let tel = Congest.Telemetry.create () in
  Congest.Telemetry.phase tel "empty-head";
  Congest.Telemetry.phase tel "ff-only";
  Congest.Telemetry.fast_forward tel ~rounds:5;
  Congest.Telemetry.phase tel "empty-mid";
  Congest.Telemetry.phase tel "ticked";
  Congest.Telemetry.tick tel ~stepped:0 ~domains:1 ~dropped:0 ~duplicated:0
    ~delayed:0 ~crashed:0 ~bits:8 ~frames:1 ~messages:1;
  Congest.Telemetry.phase tel "empty-tail";
  let phases = Congest.Telemetry.phases tel in
  check
    (Alcotest.list Alcotest.string)
    "only round-recording phases survive"
    [ "ff-only"; "ticked" ]
    (List.map
       (fun (p : Congest.Telemetry.phase_view) -> p.Congest.Telemetry.label)
       phases);
  let ff = List.hd phases in
  check ci "ff span counts as rounds" 5 ff.Congest.Telemetry.rounds;
  check ci "ff rounds tracked separately" 5 ff.Congest.Telemetry.fast_forwarded;
  check ci "one frame per quiescent round" 5 ff.Congest.Telemetry.frames;
  check ci "a quiescent round carries no bits" 0 ff.Congest.Telemetry.bits

(* [fast_forward ~rounds:k] is accounted exactly like [k] ticks of the
   empty round it replaces, with series and without (a trace's
   telemetry usually keeps none), in a phase that also has stepped
   rounds on both sides of the span. *)
let test_telemetry_fast_forward_is_empty_ticks () =
  let module Tel = Congest.Telemetry in
  let record series ~skip =
    let tel = Tel.create ~series () in
    let busy () =
      Tel.tick tel ~stepped:3 ~domains:2 ~dropped:1 ~duplicated:0 ~delayed:0
        ~crashed:0 ~bits:40 ~frames:2 ~messages:4
    in
    busy ();
    skip tel 37;
    busy ();
    Tel.phase tel "next";
    skip tel 20;
    tel
  in
  let ticks tel k =
    for _ = 1 to k do
      Tel.tick tel ~stepped:0 ~domains:1 ~dropped:0 ~duplicated:0 ~delayed:0
        ~crashed:0 ~bits:0 ~frames:1 ~messages:0
    done
  in
  let without_ff (p : Tel.phase_view) = { p with Tel.fast_forwarded = 0 } in
  List.iter
    (fun series ->
      let ff = record series ~skip:(fun tel k -> Tel.fast_forward tel ~rounds:k)
      and stepped = record series ~skip:ticks in
      check cb "aggregates equal k empty ticks" true
        (List.map without_ff (Tel.phases ff)
        = List.map without_ff (Tel.phases stepped));
      check (Alcotest.list ci) "skipped rounds tracked" [ 37; 20 ]
        (List.map (fun (p : Tel.phase_view) -> p.Tel.fast_forwarded)
           (Tel.phases ff));
      (* The series (when kept) are the stepped execution's, entry for
         entry. *)
      let rec strip = function
        | Tel.Json.Obj fs ->
            Tel.Json.Obj
              (List.filter_map
                 (fun (k, v) ->
                   if k = "fast_forwarded" then None else Some (k, strip v))
                 fs)
        | Tel.Json.List l -> Tel.Json.List (List.map strip l)
        | j -> j
      in
      let strip j = Tel.Json.to_string (strip j) in
      check Alcotest.string "JSON identical but for fast_forwarded"
        (strip (Tel.to_json stepped)) (strip (Tel.to_json ff)))
    [ true; false ]

(* Per-phase series lengths from the JSON view (phase_view exposes only
   aggregates). *)
let series_lengths tel =
  let module J = Congest.Telemetry.Json in
  let field k = function
    | J.Obj fields -> List.assoc k fields
    | _ -> Alcotest.fail "expected an object"
  in
  match field "phases" (Congest.Telemetry.to_json tel) with
  | J.List ps ->
      List.map
        (fun p ->
          let rounds =
            match field "rounds" p with J.Int r -> r | _ -> -1
          in
          let len k =
            match field k (field "series" p) with
            | J.List l -> List.length l
            | _ -> -1
          in
          (rounds, len "bits", len "frames", len "messages", len "stepped"))
        ps
  | _ -> Alcotest.fail "phases must be a list"

let test_telemetry_series_length_domains_ff () =
  (* Every series has exactly one entry per recorded round — including
     the fast-forwarded ones — for every domain count, and the series
     themselves are identical across all four configurations. *)
  let star_ping ~domains ~fast_forward tel =
    ignore
      (E.run ~telemetry:tel ~domains ~fast_forward (Generators.star 29)
         (fun ctx ->
           if E.my_id ctx = 0 then begin
             E.idle ctx 12;
             E.broadcast ctx (M.Int 5);
             ignore (E.wait ctx 30)
           end
           else
             match E.wait ctx 60 with
             | (0, M.Int v) :: _ ->
                 E.send ctx ~dest:0 (M.Int (v * 2));
                 ignore (E.wait ctx 1)
             | _ -> ()))
  in
  let module J = Congest.Telemetry.Json in
  (* Two projections of the JSON view: [drop] removes the members that
     legitimately vary with the domain count (parallel_rounds,
     max_domains — host facts); fast-forwarding additionally changes
     which fibers get stepped (a proven-quiescent round steps none), so
     the cross-ff comparison also drops stepped and fast_forwarded. *)
  let project drop tel =
    let keep = function
      | J.Obj fields ->
          J.Obj
            (List.map
               (fun (k, v) ->
                 if List.mem k drop then (k, J.Null)
                 else if k = "series" then
                   match v with
                   | J.Obj series ->
                       ( k,
                         J.Obj
                           (List.filter
                              (fun (sk, _) -> not (List.mem sk drop))
                              series) )
                   | v -> (k, v)
                 else (k, v))
               fields)
      | p -> p
    in
    match Congest.Telemetry.to_json tel with
    | J.Obj [ ("phases", J.List ps) ] ->
        J.to_string (J.List (List.map keep ps))
    | j -> J.to_string j
  in
  let host_only = [ "parallel_rounds"; "max_domains" ] in
  let views =
    List.map
      (fun (domains, fast_forward) ->
        let tel = Congest.Telemetry.create () in
        star_ping ~domains ~fast_forward tel;
        List.iter
          (fun (rounds, b, f, m, s) ->
            check ci "bits series length = rounds" rounds b;
            check ci "frames series length = rounds" rounds f;
            check ci "messages series length = rounds" rounds m;
            check ci "stepped series length = rounds" rounds s)
          (series_lengths tel);
        ( project host_only tel,
          project (host_only @ [ "stepped"; "fast_forwarded" ]) tel ))
      [ (1, true); (1, false); (3, true); (3, false) ]
  in
  match views with
  | [ (d1_on, bfm_on); (d1_off, bfm_off); (d3_on, _); (d3_off, _) ] ->
      check cb "identical across domains (ff on)" true (d1_on = d3_on);
      check cb "identical across domains (ff off)" true (d1_off = d3_off);
      check cb "bits/frames/messages identical across fast-forward" true
        (bfm_on = bfm_off)
  | _ -> assert false

let test_stats_charge_and_merge () =
  let s1 = Congest.Stats.create ~bandwidth:32 in
  let s2 = Congest.Stats.create ~bandwidth:32 in
  s1.Congest.Stats.rounds <- 3;
  s2.Congest.Stats.rounds <- 4;
  s2.Congest.Stats.max_edge_bits <- 100;
  (* A substituted subroutine's charge lands in the stats and in the
     telemetry's open phase, which it keeps alive on its own. *)
  let tel = Congest.Telemetry.create () in
  Congest.Telemetry.phase tel "oracle";
  Congest.Account.charge ~stats:s1 ~telemetry:(Some tel) 10;
  Congest.Stats.add_into s1 s2;
  check ci "rounds merged" 7 s1.Congest.Stats.rounds;
  check ci "charges kept" 10 s1.Congest.Stats.charged_rounds;
  check ci "max merged" 100 s1.Congest.Stats.max_edge_bits;
  Congest.Telemetry.phase tel "after";
  match Congest.Telemetry.phases tel with
  | [ p ] ->
      check Alcotest.string "charged phase kept" "oracle"
        p.Congest.Telemetry.label;
      check ci "charge in frames" 10 p.Congest.Telemetry.frames;
      check ci "no simulated round" 0 p.Congest.Telemetry.rounds
  | ps -> Alcotest.failf "expected one phase, got %d" (List.length ps)

let test_echo_qcheck =
  QCheck.Test.make ~name:"flood-echo counts all nodes on random trees"
    ~count:40
    QCheck.(pair (int_range 2 40) (int_range 0 10000))
    (fun (n, seed) ->
      let g = Generators.random_tree (Random.State.make [| seed |]) n in
      let depth = Traversal.eccentricity g 0 in
      let res =
        E.run g (fun ctx ->
            (* count subtree sizes toward node 0 *)
            let v = E.my_id ctx in
            let parent = ref (if v = 0 then -1 else -2) in
            let pending = ref (E.degree ctx) in
            let total = ref 1 in
            if v = 0 then E.broadcast ctx (M.Int 0);
            for _ = 1 to (2 * depth) + 2 do
              let inbox = E.sync ctx in
              List.iter
                (fun (from, M.Int x) ->
                  if x = 0 then begin
                    (* wave down *)
                    if !parent = -2 then begin
                      parent := from;
                      decr pending;
                      E.broadcast ctx (M.Int 0)
                    end
                  end
                  else begin
                    total := !total + x - 1;
                    decr pending
                  end)
                inbox;
              if !pending = 0 then begin
                pending := -1;
                if !parent >= 0 then E.send ctx ~dest:!parent (M.Int (!total + 1))
              end
            done;
            !total)
      in
      res.E.outputs.(0) = Some n)


(* ------------------------------------------------------------------ *)
(* wait / fast-forward                                                 *)
(* ------------------------------------------------------------------ *)

let stats_tuple (s : Congest.Stats.t) =
  Congest.Stats.
    ( s.rounds,
      s.charged_rounds,
      s.messages,
      s.total_bits,
      s.max_edge_bits,
      s.oversized )

let test_wait_returns_on_arrival () =
  (* A waiter wakes on the first round its inbox is non-empty, not at its
     budget's expiry. *)
  let g = Generators.path 2 in
  let res =
    E.run g (fun ctx ->
        if E.my_id ctx = 0 then begin
          E.idle ctx 5;
          E.send ctx ~dest:1 (M.Int 42);
          ignore (E.sync ctx);
          0
        end
        else
          match E.wait ctx 100 with [ (0, M.Int v) ] -> v | _ -> -1)
  in
  check cb "completed" true res.E.completed;
  check (Alcotest.option ci) "woken by arrival" (Some 42) res.E.outputs.(1);
  check ci "rounds follow the sender, not the wait budget" 6
    res.E.stats.Congest.Stats.rounds

let test_wait_timeout_empty () =
  let g = Generators.path 3 in
  let res =
    E.run g (fun ctx ->
        let inbox = E.wait ctx 9 in
        (List.length inbox, E.round ctx))
  in
  check ci "rounds = budget" 9 res.E.stats.Congest.Stats.rounds;
  Array.iter
    (fun o ->
      check
        (Alcotest.option (Alcotest.pair ci ci))
        "empty inbox at the deadline" (Some (0, 9)) o)
    res.E.outputs

let test_wait_zero_budget () =
  (* [wait ctx 0] must not end the round. *)
  let g = Generators.path 2 in
  let res =
    E.run g (fun ctx ->
        let inbox = E.wait ctx 0 in
        List.length inbox)
  in
  check ci "no round consumed" 0 res.E.stats.Congest.Stats.rounds;
  Array.iter
    (fun o -> check (Alcotest.option ci) "empty" (Some 0) o)
    res.E.outputs

let test_fast_forward_accounting () =
  (* All nodes parked for 7 rounds with nothing in flight: the expiry
     round is simulated, the 6 before it are fast-forwarded — and the
     nominal accounting is identical with the optimisation disabled. *)
  let g = Generators.path 3 in
  let run ff =
    E.run ~fast_forward:ff g (fun ctx ->
        E.idle ctx 7;
        E.round ctx)
  in
  let on = run true and off = run false in
  check ci "rounds (ff on)" 7 on.E.stats.Congest.Stats.rounds;
  check ci "all but the expiry round skipped" 6
    on.E.stats.Congest.Stats.fast_forwarded_rounds;
  check ci "rounds (ff off)" 7 off.E.stats.Congest.Stats.rounds;
  check ci "nothing skipped with ff off" 0
    off.E.stats.Congest.Stats.fast_forwarded_rounds;
  check cb "stats otherwise identical" true
    (stats_tuple on.E.stats = stats_tuple off.E.stats);
  Array.iter
    (fun o -> check (Alcotest.option ci) "round counter" (Some 7) o)
    on.E.outputs

let test_fast_forward_capped_by_max_rounds () =
  let g = Generators.path 2 in
  let res = E.run ~max_rounds:12 g (fun ctx -> E.idle ctx 1000) in
  check cb "not completed" false res.E.completed;
  check ci "stopped exactly at the limit" 12 res.E.stats.Congest.Stats.rounds

(* A messaging protocol with staggered waits: the hub pings every leaf
   after a long pause, leaves wake on arrival and echo back.  Nominal
   accounting and outputs must be byte-identical with fast-forward on and
   off. *)
let ping_echo ff =
  let g = Generators.star 8 in
  E.run ~fast_forward:ff g (fun ctx ->
      if E.my_id ctx = 0 then begin
        E.idle ctx 20;
        E.broadcast ctx (M.Int 5);
        let echoes = E.wait ctx 50 in
        List.fold_left (fun acc (_, M.Int v) -> acc + v) 0 echoes
      end
      else
        match E.wait ctx 100 with
        | [ (0, M.Int v) ] ->
            E.send ctx ~dest:0 (M.Int (v * 2));
            ignore (E.wait ctx 1);
            v
        | _ -> -1)

let test_fast_forward_stats_identical_with_traffic () =
  let on = ping_echo true and off = ping_echo false in
  check cb "fast-forward fired" true
    (on.E.stats.Congest.Stats.fast_forwarded_rounds > 0);
  check cb "stats identical" true
    (stats_tuple on.E.stats = stats_tuple off.E.stats);
  check cb "outputs identical" true (on.E.outputs = off.E.outputs);
  check (Alcotest.option ci) "hub summed doubled pings" (Some 70)
    on.E.outputs.(0)

(* ------------------------------------------------------------------ *)
(* Sharded stepping: accounting is invariant in [domains]              *)
(* ------------------------------------------------------------------ *)

(* 25 live nodes exceeds the engine's sharding threshold, so d > 1 runs
   genuinely cut the worklist into blocks.  Everything observable —
   inbox transcripts, outputs, stats — must match the serial run
   exactly. *)
let sharded_run d =
  let g = Generators.grid 5 5 in
  let res =
    E.run ~domains:d g (fun ctx ->
        let log = ref [] in
        let r = Random.State.int (node_rng 7 ctx) 3 + 2 in
        for i = 1 to r do
          E.broadcast ctx (M.Int ((100 * E.my_id ctx) + i));
          log := E.sync ctx :: !log
        done;
        ignore (E.wait ctx (1 + (E.my_id ctx mod 4)));
        List.rev !log)
  in
  (res.E.outputs, stats_tuple res.E.stats)

let test_sharded_accounting_invariant () =
  let serial = sharded_run 1 in
  List.iter
    (fun d ->
      check cb
        (Printf.sprintf "domains=%d identical to serial" d)
        true
        (sharded_run d = serial))
    [ 2; 3; 4 ]

(* More domains than live nodes: a 20-node cycle steps all 20 nodes in
   its later rounds, which is above the sharding threshold but below the
   domain count.  Every node must still run to completion and keep its
   output, exactly as in the serial run. *)
let test_sharded_oversubscribed () =
  let g = Generators.cycle 20 in
  let prog ctx =
    E.broadcast ctx (M.Int 1);
    ignore (E.sync ctx);
    ignore (E.sync ctx);
    E.my_id ctx
  in
  let serial = E.run ~domains:1 g prog in
  List.iter
    (fun domains ->
      let res = E.run ~domains g prog in
      let tag = Printf.sprintf "domains=%d" domains in
      check cb (tag ^ ": completed") true res.E.completed;
      check (Alcotest.array (Alcotest.option ci)) (tag ^ ": outputs")
        serial.E.outputs res.E.outputs;
      check ci (tag ^ ": rounds") serial.E.stats.Congest.Stats.rounds
        res.E.stats.Congest.Stats.rounds;
      check ci (tag ^ ": messages") serial.E.stats.Congest.Stats.messages
        res.E.stats.Congest.Stats.messages)
    [ 17; 24; 64 ]

let test_sharded_exception_choice () =
  (* Several nodes fail in the same round across different blocks: the
     propagated exception must be the lowest failing node's, for any
     domain count. *)
  let g = Generators.grid 5 5 in
  List.iter
    (fun d ->
      try
        ignore
          (E.run ~domains:d g (fun ctx ->
               ignore (E.sync ctx);
               if E.my_id ctx mod 7 = 3 then
                 failwith (string_of_int (E.my_id ctx));
               ignore (E.sync ctx)));
        Alcotest.fail "expected node failure"
      with Failure msg ->
        check Alcotest.string
          (Printf.sprintf "lowest failing node wins (domains=%d)" d)
          "3" msg)
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

let neighbor_sum_protocol ctx =
  E.broadcast ctx (M.Int (E.my_id ctx));
  List.fold_left (fun acc (_, M.Int v) -> acc + v) 0 (E.sync ctx)

let stats_tuple (s : Congest.Stats.t) =
  Congest.Stats.
    ( (s.rounds, s.charged_rounds, s.messages, s.total_bits, s.max_edge_bits),
      (s.dropped, s.duplicated, s.delayed, s.crashed_nodes),
      s.fast_forwarded_rounds )

let test_faults_none_identity () =
  (* ~faults:Faults.none must be byte-identical to no ?faults at all. *)
  let g = Generators.grid 4 4 in
  let plain = E.run g neighbor_sum_protocol in
  let withnone = E.run ~faults:Congest.Faults.none g neighbor_sum_protocol in
  check cb "outputs equal" true (plain.E.outputs = withnone.E.outputs);
  check cb "stats equal" true
    (stats_tuple plain.E.stats = stats_tuple withnone.E.stats);
  check ci "nothing dropped" 0 withnone.E.stats.Congest.Stats.dropped

let test_faults_drop_all () =
  (* drop=1.0: every message is destroyed but still charged on the wire;
     protocols see pure silence. *)
  let g = Generators.cycle 5 in
  let faults = Congest.Faults.make ~drop:1.0 () in
  let res = E.run ~faults g neighbor_sum_protocol in
  check cb "completed" true res.E.completed;
  Array.iter
    (fun o -> check (Alcotest.option ci) "silence everywhere" (Some 0) o)
    res.E.outputs;
  check ci "all 10 directed messages dropped" 10
    res.E.stats.Congest.Stats.dropped;
  check ci "dropped messages still charged" 10
    res.E.stats.Congest.Stats.messages;
  check cb "bits charged" true (res.E.stats.Congest.Stats.total_bits > 0)

let test_faults_duplicate_all () =
  let g = Generators.cycle 4 in
  let faults = Congest.Faults.make ~duplicate:1.0 () in
  let res = E.run ~faults g neighbor_sum_protocol in
  check cb "completed" true res.E.completed;
  Array.iteri
    (fun v o ->
      let expect = 2 * (((v + 1) mod 4) + ((v + 3) mod 4)) in
      check (Alcotest.option ci) "every message received twice" (Some expect) o)
    res.E.outputs;
  check ci "8 duplications" 8 res.E.stats.Congest.Stats.duplicated;
  check ci "both copies charged" 16 res.E.stats.Congest.Stats.messages

let test_faults_delay_arrival () =
  (* delay=1.0, max_delay=1: every message lands exactly one round late. *)
  let g = Generators.path 2 in
  let faults = Congest.Faults.make ~delay:1.0 ~max_delay:1 () in
  let res =
    E.run ~faults g (fun ctx ->
        if E.my_id ctx = 0 then begin
          E.broadcast ctx (M.Int 7);
          ignore (E.sync ctx);
          ignore (E.sync ctx);
          -1
        end
        else
          let r1 = List.length (E.sync ctx) in
          let r2 = List.length (E.sync ctx) in
          (10 * r1) + r2)
  in
  check cb "completed" true res.E.completed;
  check (Alcotest.option ci) "empty round 1, arrival in round 2" (Some 1)
    res.E.outputs.(1);
  check ci "one delayed message" 1 res.E.stats.Congest.Stats.delayed

let test_faults_crash_stop () =
  (* A node crash-stopped from round 1 never completes: the run ends with
     completed=false, the crash is counted, and neighbors see silence. *)
  let g = Generators.path 3 in
  let faults =
    Congest.Faults.make
      ~crashes:
        [ { Congest.Faults.node = 1; from_round = 1; until_round = max_int } ]
      ()
  in
  let res = E.run ~faults g neighbor_sum_protocol in
  check cb "not completed" false res.E.completed;
  check ci "one crash event" 1 res.E.stats.Congest.Stats.crashed_nodes;
  check (Alcotest.option ci) "crashed node has no output" None res.E.outputs.(1);
  check (Alcotest.option ci) "neighbor heard silence" (Some 0) res.E.outputs.(0);
  check (Alcotest.option ci) "other neighbor too" (Some 0) res.E.outputs.(2)

let test_faults_crash_recover () =
  (* Crash-recover: node 1 is down for rounds 1-2 and back at round 3; a
     message sent while it was down is dropped, one sent after recovery
     arrives. *)
  let g = Generators.path 2 in
  let faults =
    Congest.Faults.make
      ~crashes:[ { Congest.Faults.node = 1; from_round = 1; until_round = 3 } ]
      ()
  in
  let res =
    E.run ~faults g (fun ctx ->
        if E.my_id ctx = 0 then begin
          (* round 1: node 1 is down; rounds 3: it is back *)
          E.broadcast ctx (M.Int 1);
          ignore (E.sync ctx);
          ignore (E.sync ctx);
          E.broadcast ctx (M.Int 2);
          ignore (E.sync ctx);
          -1
        end
        else
          (* node 1 sleeps through its crash window, then listens *)
          List.fold_left
            (fun acc (_, M.Int v) -> acc + v)
            0
            (E.sync ctx @ E.sync ctx @ E.sync ctx))
  in
  check cb "completed" true res.E.completed;
  check ci "crash-recover counted once" 1
    res.E.stats.Congest.Stats.crashed_nodes;
  check (Alcotest.option ci) "only the post-recovery message arrived" (Some 2)
    res.E.outputs.(1);
  check ci "the in-window message was dropped" 1
    res.E.stats.Congest.Stats.dropped

(* A crash start inside the run's final fast-forwarded span, which
   [max_rounds] cuts: node 1 of a path goes down for good at round 150
   while parked on [wait 500], the others wait 1000, and the run stops at
   round 200.  Fast-forward jumps straight to the cut, so the crash is
   counted after the drive; every projection must still see it, exactly
   as in the round-by-round execution. *)
let test_faults_crash_in_final_skip () =
  let module Tel = Congest.Telemetry in
  let module Mx = Obs.Metrics in
  let counter name =
    match List.find_opt (fun f -> f.Mx.name = name) (Mx.snapshot ()) with
    | Some { Mx.series = [ { Mx.value = Mx.Counter_v v; _ } ]; _ } -> v
    | _ -> Alcotest.failf "metric %s missing" name
  in
  let g = Generators.path 3 in
  let faults =
    Congest.Faults.make
      ~crashes:
        [ { Congest.Faults.node = 1; from_round = 150; until_round = max_int } ]
      ()
  in
  let leg fast_forward =
    let what = if fast_forward then "ff on: " else "ff off: " in
    Fun.protect
      ~finally:(fun () -> Mx.set_enabled false)
      (fun () ->
        Mx.set_enabled true;
        Mx.reset ();
        let tel = Tel.create () in
        let tr = Congest.Trace.create tel in
        let res =
          E.run ~faults ~fast_forward ~max_rounds:200 ~trace:tr g (fun ctx ->
              ignore (E.wait ctx (if E.my_id ctx = 1 then 500 else 1000)))
        in
        Congest.Trace.finish tr;
        let s = res.E.stats in
        check cb (what ^ "cut by max_rounds") false res.E.completed;
        check ci (what ^ "rounds") 200 s.Congest.Stats.rounds;
        check ci (what ^ "Stats.crashed_nodes") 1 s.Congest.Stats.crashed_nodes;
        check ci (what ^ "telemetry crashed") 1
          (List.fold_left
             (fun acc (p : Tel.phase_view) -> acc + p.Tel.crashed)
             0 (Tel.phases tel));
        check ci (what ^ "trace crashed") 1
          (Congest.Trace.totals tr).Congest.Trace.crashed;
        check ci (what ^ "congest_crashed_nodes") 1
          (counter "congest_crashed_nodes");
        Tel.phases tel)
  in
  let on = leg true and off = leg false in
  (* [fast_forwarded] exists to differ, and with fast-forward off every
     parked node is stepped each round; everything else is simulated. *)
  let sim (p : Tel.phase_view) =
    { p with Tel.fast_forwarded = 0; stepped = 0 }
  in
  check cb "telemetry phases identical with fast-forward on and off" true
    (List.map sim on = List.map sim off)

let test_faults_deterministic_and_invariant () =
  (* A mixed policy: the full result (outputs + every stat) is a pure
     function of the policy, independent of domains and fast-forward. *)
  let g = Generators.grid 4 5 in
  let faults =
    Congest.Faults.make ~seed:11 ~drop:0.2 ~duplicate:0.1 ~delay:0.15
      ~max_delay:3 ~truncate:0.05 ()
  in
  let run ~domains ~fast_forward =
    let res =
      E.run ~faults ~domains ~fast_forward g (fun ctx ->
          let acc = ref 0 in
          for _ = 1 to 4 do
            E.broadcast ctx (M.Int (E.my_id ctx));
            List.iter (fun (_, M.Int v) -> acc := !acc + v) (E.sync ctx)
          done;
          !acc)
    in
    let (a, faults, _ff) = stats_tuple res.E.stats in
    (res.E.outputs, a, faults)
  in
  let base = run ~domains:1 ~fast_forward:true in
  check cb "policy actually fired" true
    (let _, _, (d, _, _, _) = base in
     d > 0);
  List.iter
    (fun domains ->
      List.iter
        (fun fast_forward ->
          check cb
            (Printf.sprintf "identical at domains=%d ff=%b" domains
               fast_forward)
            true
            (run ~domains ~fast_forward = base))
        [ true; false ])
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* on_error:`Record — all per-node exceptions, not just one            *)
(* ------------------------------------------------------------------ *)

let test_record_mode_collects_all_failures () =
  (* Several nodes fail in the same round across different shard blocks.
     `Propagate keeps the historical lowest-node-wins exception (see
     test_sharded_exception_choice); `Record must log every failure,
     identically for any domain count. *)
  let g = Generators.grid 5 5 in
  let program ctx =
    ignore (E.sync ctx);
    if E.my_id ctx mod 7 = 3 then failwith (string_of_int (E.my_id ctx));
    ignore (E.sync ctx)
  in
  let failing = [ 3; 10; 17; 24 ] in
  let run d =
    let res = E.run ~domains:d ~on_error:`Record g program in
    check cb
      (Printf.sprintf "not completed (domains=%d)" d)
      false res.E.completed;
    List.map
      (fun (round, node, e) ->
        (round, node, match e with Failure m -> m | e -> Printexc.to_string e))
      res.E.failures
  in
  let serial = run 1 in
  check
    (Alcotest.list triple)
    "all four failures recorded, chronological"
    (List.map (fun v -> (1, v, string_of_int v)) failing)
    serial;
  List.iter
    (fun d ->
      check
        (Alcotest.list triple)
        (Printf.sprintf "identical failure log (domains=%d)" d)
        serial (run d))
    [ 2; 4 ]

let test_record_mode_survivors_complete () =
  (* In record mode the healthy nodes keep running to completion. *)
  let g = Generators.cycle 6 in
  let res =
    E.run ~on_error:`Record g (fun ctx ->
        if E.my_id ctx = 2 then failwith "boom";
        neighbor_sum_protocol ctx)
  in
  check cb "run flagged incomplete" false res.E.completed;
  check ci "one failure" 1 (List.length res.E.failures);
  check (Alcotest.option ci) "failed node has no output" None res.E.outputs.(2);
  (* node 0's neighbors are 1 and 5, both healthy *)
  check (Alcotest.option ci) "healthy node finished" (Some 6) res.E.outputs.(0)

let test_propagate_default_unchanged () =
  (* Without ?on_error the engine still raises the (lowest-node) failure. *)
  let g = Generators.path 3 in
  try
    ignore
      (E.run g (fun ctx ->
           ignore (E.sync ctx);
           failwith (string_of_int (E.my_id ctx))));
    Alcotest.fail "expected propagation"
  with Failure msg -> check Alcotest.string "lowest node propagates" "0" msg

(* Appended: classic protocols on the engine. *)
let test_protocols_bfs () =
  let g = Generators.grid 5 6 in
  let r = Congest.Protocols.bfs_tree g ~root:0 ~rounds_bound:(Graph.n g) in
  let expect = Traversal.dist_from g 0 in
  Array.iteri (fun v d -> check ci "level" expect.(v) d) r.Congest.Protocols.level

let test_protocols_leader () =
  let g = Graph.disjoint_union (Generators.cycle 5) (Generators.path 4) in
  let leaders = Congest.Protocols.elect_min_id g ~rounds_bound:(Graph.n g) in
  for v = 0 to 4 do check ci "component 1 leader" 0 leaders.(v) done;
  for v = 5 to 8 do check ci "component 2 leader" 5 leaders.(v) done

let test_protocols_count () =
  let g = Generators.grid 6 6 in
  let count, rounds = Congest.Protocols.count_nodes g ~root:0 ~rounds_bound:(3 * Graph.n g) in
  check ci "counted all" 36 count;
  check cb "rounds sane" true (rounds > 0)

let test_protocols_count_qcheck =
  QCheck.Test.make ~name:"flood-echo count on random connected graphs" ~count:30
    QCheck.(pair (int_range 2 40) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Generators.gnp rng n 0.25 in
      let members = Traversal.component_of g 0 in
      let count, _ = Congest.Protocols.count_nodes g ~root:0 ~rounds_bound:(3 * n + 4) in
      count = List.length members)

(* The compiled execution path must be indistinguishable from the fiber
   engine on every protocol it recognizes — same outputs, same round
   counts — across connected and disconnected random inputs. *)
let test_protocols_compiled_differential =
  QCheck.Test.make
    ~name:"protocols: compiled mode == fiber mode on random graphs" ~count:30
    QCheck.(pair (int_range 2 40) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 31 |] in
      let g = Generators.gnp rng n 0.2 in
      let run mode =
        let bfs =
          Congest.Protocols.bfs_tree ~mode g ~root:0 ~rounds_bound:(Graph.n g)
        in
        let leaders =
          Congest.Protocols.elect_min_id ~mode g ~rounds_bound:(Graph.n g)
        in
        let count =
          Congest.Protocols.count_nodes ~mode g ~root:0
            ~rounds_bound:((3 * n) + 4)
        in
        ( (bfs.Congest.Protocols.parent, bfs.Congest.Protocols.level,
           bfs.Congest.Protocols.rounds),
          leaders, count )
      in
      run Congest.Compiled.Fiber = run Congest.Compiled.Compiled
      ||
      QCheck.Test.fail_reportf "compiled/fiber divergence at n=%d seed=%d" n
        seed)

(* A kernel's [Park k] with [k <= 0] means one round on both executors.
   The engine's stepping loop clamps it like [Compiled] does: taken
   literally, [Park 0] would wake the node again inside the round it
   parked in. *)
module Clamp_kernel (N : Congest.Compiled.NET with type msg = M.t) = struct
  let last = 6

  let start ctx v =
    if v = 0 then N.broadcast ctx (M.Int 0);
    Congest.Compiled.Park 0

  let resume ctx _v inbox =
    let r = N.round ctx in
    if (not (N.inbox_is_empty inbox)) && r < last - 1 then
      N.broadcast ctx (M.Int r);
    if r >= last then Congest.Compiled.Halt
    else Congest.Compiled.Park (if r mod 2 = 0 then 0 else -3)
end

module C = Congest.Compiled.Make (M)

let test_kernel_park_clamp () =
  let module KE = Clamp_kernel (E) in
  let module KC = Clamp_kernel (C) in
  let g = Generators.path 8 in
  List.iter
    (fun fast_forward ->
      let fiber =
        E.run_kernel ~fast_forward g ~start:KE.start ~resume:KE.resume
      in
      let compiled =
        C.run ~fast_forward g ~start:KC.start ~resume:KC.resume
      in
      let fs = fiber.E.stats and cs = compiled.C.stats in
      check cb "fiber completed" true fiber.E.completed;
      check cb "compiled completed" true compiled.C.completed;
      check ci "one round per park" KE.last fs.Congest.Stats.rounds;
      check cb "messages sent" true (fs.Congest.Stats.messages > 0);
      check cb
        (Printf.sprintf "identical stats (ff=%b)" fast_forward)
        true (fs = cs))
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Compiled scheduler edge cases, against the fiber adapter            *)
(* ------------------------------------------------------------------ *)

module T = Congest.Trace

let trace_events tr =
  let acc = ref [] in
  T.iter_events tr (fun e -> acc := e :: !acc);
  List.rev !acc

(* What one executor did with a kernel: the stats and completion flag (or
   the exception it raised), the exact trace totals and the events the
   ring kept. *)
type outcome = {
  o_stats : Congest.Stats.t option;
  o_completed : bool;
  o_exn : string option;
  o_totals : T.totals;
  o_events : T.event list;
}

let outcome ~capacity run =
  let tr =
    T.create ~config:{ T.default_config with T.capacity }
      (Congest.Telemetry.create ())
  in
  let o_stats, o_completed, o_exn =
    match run tr with
    | stats, completed -> (Some stats, completed, None)
    | exception e -> (None, false, Some (Printexc.to_string e))
  in
  T.finish tr;
  { o_stats; o_completed; o_exn; o_totals = T.totals tr; o_events = trace_events tr }

let check_same_outcome what (a : outcome) (b : outcome) =
  check cb (what ^ ": stats") true (a.o_stats = b.o_stats);
  check cb (what ^ ": completed") a.o_completed b.o_completed;
  check (Alcotest.option Alcotest.string) (what ^ ": exception") a.o_exn b.o_exn;
  check cb (what ^ ": trace totals") true (a.o_totals = b.o_totals);
  check ci (what ^ ": kept events") (List.length a.o_events)
    (List.length b.o_events);
  check cb (what ^ ": events") true (a.o_events = b.o_events)

module type KERNEL = functor (N : Congest.Compiled.NET with type msg = M.t) -> sig
  val start : N.ctx -> int -> Congest.Compiled.step
  val resume : N.ctx -> int -> N.inbox -> Congest.Compiled.step
end

let fiber_outcome ?max_rounds ?(capacity = 1 lsl 16) ~fast_forward g
    (module K : KERNEL) =
  let module KE = K (E) in
  outcome ~capacity (fun trace ->
      let r =
        E.run_kernel ?max_rounds ~fast_forward ~trace g ~start:KE.start
          ~resume:KE.resume
      in
      (r.E.stats, r.E.completed))

let compiled_outcome ?max_rounds ?(capacity = 1 lsl 16) ?pool ~fast_forward g
    (module K : KERNEL) =
  let module KC = K (C) in
  outcome ~capacity (fun trace ->
      let r =
        C.run ?max_rounds ?pool ~fast_forward ~trace g ~start:KC.start
          ~resume:KC.resume
      in
      (r.C.stats, r.C.completed))

(* Every deadline lies far past the scheduler's initial window: the
   start-up parks (10_000 + 1_000 v), the re-parks of a ping-pong wave
   that wakes overflow nodes early (~20_000, nearly coinciding), and the
   odd nodes' 12_345 + v re-parks.  Fast-forward must land on each
   deadline exactly. *)
module Far_parks (N : Congest.Compiled.NET with type msg = M.t) = struct
  let resumes = Array.make 8 0

  let start ctx v =
    if v = 0 then N.broadcast ctx (M.Int 0);
    Congest.Compiled.Park (10_000 + (1_000 * v))

  let resume ctx v inbox =
    resumes.(v) <- resumes.(v) + 1;
    let r = N.round ctx in
    if not (N.inbox_is_empty inbox) then begin
      if r < 20 then N.broadcast ctx (M.Int r);
      Congest.Compiled.Park (20_000 - (7 * r) - v)
    end
    else if resumes.(v) >= 24 then Congest.Compiled.Halt
    else if v mod 2 = 0 then Congest.Compiled.Park 3
    else Congest.Compiled.Park (12_345 + v)
end

let test_compiled_far_parks () =
  let g = Generators.path 8 in
  List.iter
    (fun (fast_forward, capacity) ->
      let f = fiber_outcome ~capacity ~fast_forward g (module Far_parks) in
      let c = compiled_outcome ~capacity ~fast_forward g (module Far_parks) in
      check cb "ran past 10_000 rounds" true
        (match f.o_stats with
        | Some s -> s.Congest.Stats.rounds > 10_000
        | None -> false);
      check_same_outcome (Printf.sprintf "far parks ff=%b" fast_forward) f c)
    (* with fast-forward off every parked node is resumed every round, so
       the ring keeps the tail of the run; the totals stay exact *)
    [ (true, 1 lsl 16); (false, 1 lsl 12) ]

(* [on_round] is the host-side round clock (heartbeats, progress bars):
   its deltas, one per stepped round plus one per fast-forwarded span,
   must sum to exactly [Stats.rounds] on both executors.  The heartbeat
   cannot catch an executor that under-reports a skip, since it
   publishes the larger of its sampled and its ticked rounds; this test
   does.  The [max_rounds] leg cuts the run inside a skip. *)
let test_on_round_sums_to_rounds () =
  let g = Generators.path 8 in
  List.iter
    (fun (fast_forward, max_rounds) ->
      let what executor =
        Printf.sprintf "%s ff=%b max_rounds=%d" executor fast_forward
          max_rounds
      in
      let check_sum executor (s : Congest.Stats.t) sum =
        if fast_forward then
          check cb (what executor ^ ": skipped") true
            (s.Congest.Stats.fast_forwarded_rounds > 0);
        check ci (what executor ^ ": on_round deltas = rounds")
          s.Congest.Stats.rounds sum
      in
      let sum = ref 0 in
      let module KE = Far_parks (E) in
      let r =
        E.run_kernel ~max_rounds ~fast_forward
          ~on_round:(fun d -> sum := !sum + d)
          g ~start:KE.start ~resume:KE.resume
      in
      check_sum "engine" r.E.stats !sum;
      let sum = ref 0 in
      let module KC = Far_parks (C) in
      let r =
        C.run ~max_rounds ~fast_forward
          ~on_round:(fun d -> sum := !sum + d)
          g ~start:KC.start ~resume:KC.resume
      in
      check_sum "compiled" r.C.stats !sum)
    [ (true, 1_000_000); (false, 1_000_000); (true, 15_000) ]

(* Odd nodes halt at start-up and node 2 halts in round 3, while their
   neighbors keep sending to them: deliveries to halted nodes are charged
   but resume nobody. *)
module Halted_arrivals (N : Congest.Compiled.NET with type msg = M.t) =
struct
  let start ctx v =
    if v mod 2 = 1 then Congest.Compiled.Halt
    else begin
      N.broadcast ctx (M.Int v);
      Congest.Compiled.Park 2
    end

  let resume ctx v _inbox =
    let r = N.round ctx in
    if r >= 9 || (v = 2 && r >= 3) then Congest.Compiled.Halt
    else begin
      N.broadcast ctx (M.Int r);
      Congest.Compiled.Park (1 + (v mod 3))
    end
end

let test_compiled_halted_arrivals () =
  let g = Generators.cycle 9 in
  List.iter
    (fun fast_forward ->
      let f = fiber_outcome ~fast_forward g (module Halted_arrivals) in
      let c = compiled_outcome ~fast_forward g (module Halted_arrivals) in
      check cb "completed" true c.o_completed;
      check_same_outcome
        (Printf.sprintf "halted arrivals ff=%b" fast_forward)
        f c)
    [ true; false ]

(* Never halts: node 0 keeps a message in flight, the others park on
   staggered deadlines (some beyond the initial window). *)
module Forever (N : Congest.Compiled.NET with type msg = M.t) = struct
  let start ctx v =
    if v = 0 then N.broadcast ctx (M.Int 0);
    Congest.Compiled.Park (if v = 0 then 1 else 5 + (v * 700))

  let resume ctx v _inbox =
    if v = 0 then begin
      N.broadcast ctx (M.Int (N.round ctx));
      Congest.Compiled.Park 1
    end
    else Congest.Compiled.Park (3 + v)
end

(* A hook exception in round 4 at node 3, after lower ids stepped and
   while the others (some in the overflow list) stay parked. *)
module Fails (N : Congest.Compiled.NET with type msg = M.t) = struct
  let start ctx v =
    if v = 0 then N.broadcast ctx (M.Int 0);
    Congest.Compiled.Park (if v >= 5 then 4_000 + v else 1)

  let resume ctx v _inbox =
    let r = N.round ctx in
    if r = 4 && v = 3 then raise Exit;
    if v = 0 then N.broadcast ctx (M.Int r);
    Congest.Compiled.Park 1
end

let test_compiled_max_rounds_cut () =
  let g = Generators.path 8 in
  List.iter
    (fun fast_forward ->
      let what = Printf.sprintf "max_rounds cut ff=%b" fast_forward in
      let f = fiber_outcome ~max_rounds:37 ~fast_forward g (module Forever) in
      let pool = C.pool g in
      let c =
        compiled_outcome ~max_rounds:37 ~pool ~fast_forward g (module Forever)
      in
      check cb (what ^ ": incomplete") false c.o_completed;
      check_same_outcome what f c;
      (* The cut left nodes parked in the pool's scheduler. *)
      let reused = compiled_outcome ~pool ~fast_forward g (module Far_parks) in
      let fresh = compiled_outcome ~fast_forward g (module Far_parks) in
      check_same_outcome (what ^ ": next run on the same pool") fresh reused)
    [ true; false ]

let test_compiled_hook_exception () =
  let g = Generators.path 8 in
  List.iter
    (fun fast_forward ->
      let what = Printf.sprintf "hook exception ff=%b" fast_forward in
      let f = fiber_outcome ~fast_forward g (module Fails) in
      let pool = C.pool g in
      let c = compiled_outcome ~pool ~fast_forward g (module Fails) in
      check (Alcotest.option Alcotest.string) (what ^ ": raised")
        (Some (Printexc.to_string Exit)) c.o_exn;
      check_same_outcome what f c;
      let reused = compiled_outcome ~pool ~fast_forward g (module Far_parks) in
      let fresh = compiled_outcome ~fast_forward g (module Far_parks) in
      check_same_outcome (what ^ ": next run on the same pool") fresh reused)
    [ true; false ]

(* The engine's kernel adapter as it was before kernels stepped on the
   engine's own stack: a node program that drives a kernel through
   [wait], over the inbox list [wait] returns ([EL]).  Run by [E.run]'s
   effect adapter, it is the reference for [E.run_kernel]'s direct
   stepping. *)
module EL = struct
  type ctx = E.ctx
  type msg = M.t

  let send = E.send
  let send_port = E.send_port
  let broadcast = E.broadcast
  let round = E.round

  type inbox = (int * M.t) list

  let inbox_is_empty = function [] -> true | _ :: _ -> false
  let inbox_sender _ l = fst (List.hd l)
  let inbox_msg _ l = snd (List.hd l)
  let inbox_next _ l = List.tl l
end

let program_of_kernel ~start ~resume c =
  let rec loop = function
    | Congest.Compiled.Halt -> ()
    | Congest.Compiled.Park k ->
        loop (resume c (E.my_id c) (E.wait c (max 1 k)))
  in
  loop (start c (E.my_id c))

(* Traffic-dependent sends and parks (including [Park 0]) on a 49-node
   grid, wide enough to shard; nodes 5, 16, 27 and 38 halt at start-up,
   and node 20 raises at its first step from round 4 on. *)
module Mixed (N : Congest.Compiled.NET with type msg = M.t) = struct
  let start ctx v =
    if v mod 3 = 0 then N.broadcast ctx (M.Int v);
    if v mod 11 = 5 then Congest.Compiled.Halt
    else Congest.Compiled.Park (1 + (v mod 4))

  let resume ctx v inbox =
    let r = N.round ctx in
    let sum = ref 0 and cur = ref inbox in
    while not (N.inbox_is_empty !cur) do
      (match N.inbox_msg ctx !cur with
      | M.Int x -> sum := (3 * !sum) + x + N.inbox_sender ctx !cur);
      cur := N.inbox_next ctx !cur
    done;
    if v = 20 && r >= 4 then failwith "node 20";
    if r >= 14 then Congest.Compiled.Halt
    else begin
      if (!sum + v + r) mod 3 = 0 then N.broadcast ctx (M.Int (r + v));
      Congest.Compiled.Park (if v mod 5 = 0 then 0 else 1 + ((v + r) mod 6))
    end
end

let test_adapter_matches_direct () =
  let g = Generators.grid 7 7 in
  let policy spec =
    match Congest.Faults.of_spec spec with
    | Ok p -> Some p
    | Error e -> failwith e
  in
  (* Node 5 halted at start-up, so only the crashes of nodes 7 and 12,
     which are still running, count. *)
  let crash = policy "crash=7@3,crash=5@2,crash=12@2-6" in
  let failures = ref [] in
  let record fs =
    failures :=
      List.map (fun (r, v, e) -> (r, v, Printexc.to_string e)) fs
  in
  List.iter
    (fun (pname, faults) ->
      List.iter
        (fun (fast_forward, domains, on_error) ->
          let what =
            Printf.sprintf "%s ff=%b domains=%d %s" pname fast_forward domains
              (if on_error = `Record then "record" else "propagate")
          in
          failures := [];
          let direct =
            let module K = Mixed (E) in
            outcome ~capacity:(1 lsl 16) (fun trace ->
                let r =
                  E.run_kernel ?faults ~fast_forward ~domains ~on_error ~trace
                    g ~start:K.start ~resume:K.resume
                in
                record r.E.failures;
                (r.E.stats, r.E.completed))
          in
          let direct_failures = !failures in
          failures := [];
          let adapted =
            let module K = Mixed (EL) in
            outcome ~capacity:(1 lsl 16) (fun trace ->
                let r =
                  E.run ?faults ~fast_forward ~domains ~on_error ~trace g
                    (program_of_kernel ~start:K.start ~resume:K.resume)
                in
                record r.E.failures;
                (r.E.stats, r.E.completed))
          in
          check_same_outcome what direct adapted;
          check (Alcotest.list triple) (what ^ ": failures") direct_failures
            !failures;
          if on_error = `Record then
            check ci (what ^ ": node 20 failed") 1 (List.length !failures);
          if domains > 1 then
            check cb (what ^ ": sharded") true
              (List.exists
                 (function T.Shard _ -> true | _ -> false)
                 direct.o_events);
          if faults == crash then
            match direct.o_stats with
            | Some s ->
                check ci (what ^ ": running nodes crashed") 2
                  s.Congest.Stats.crashed_nodes
            | None -> ())
        (List.concat_map
           (fun ff ->
             List.concat_map
               (fun d -> [ (ff, d, `Record); (ff, d, `Propagate) ])
               [ 1; 4; 17 ])
           [ true; false ]))
    [
      ("no faults", None);
      ("drop", policy "drop=0.01,seed=7");
      ("delay", policy "delay=0.3,maxdelay=3,seed=5");
      ("crash", crash);
    ]

(* The compiled executor allocates nothing per delivery beyond the
   messages themselves: node 0 sends [count] messages to node 1 on its
   known edge (no neighbor search), and node 1 reads them all from one
   inbox through the cursor.  Doubling [count] on a warm pool may
   cost at most the extra messages' words (an [M.Int] is 2 words). *)
let alloc_count = ref 0
let alloc_sum = ref 0
let alloc_add (M.Int x) = alloc_sum := !alloc_sum + x

let alloc_start ctx v =
  if v = 0 then
    for i = 1 to !alloc_count do
      C.send_port ctx ~dest:1 ~eid:0 (M.Int i)
    done;
  C.Park 1

let alloc_resume ctx _ inbox =
  let cur = ref inbox in
  while not (C.inbox_is_empty !cur) do
    alloc_add (C.inbox_msg ctx !cur);
    cur := C.inbox_next ctx !cur
  done;
  C.Halt

let test_compiled_alloc_per_message () =
  let g = Generators.path 2 in
  let pool = C.pool g in
  let words count =
    alloc_count := count;
    alloc_sum := 0;
    let w0 = Gc.minor_words () in
    ignore (C.run ~pool g ~start:alloc_start ~resume:alloc_resume);
    let w = Gc.minor_words () -. w0 in
    check ci "every message read" (count * (count + 1) / 2) !alloc_sum;
    w
  in
  ignore (words 4_000);
  let small = words 2_000 and large = words 4_000 in
  let extra = large -. small in
  check cb
    (Printf.sprintf "2000 extra messages cost %.0f words (<= 4000)" extra)
    true
    (extra <= 2.0 *. 2_000.)

(* ------------------------------------------------------------------ *)
(* Million-node substrate: pooled buffers and delay buckets            *)
(* ------------------------------------------------------------------ *)

(* A warmed pool must make per-run allocation independent of the edge
   count: the per-edge state (bit counters, fault indices, inbox slabs)
   lives in the pool, so only the per-node fiber machinery allocates per
   run.  Checked differentially — same node count, same protocol, ~12x
   the edges — because the O(n) fiber cost is inherent and would drown
   any absolute threshold. *)
let test_pool_no_per_edge_alloc () =
  let n = 400 in
  (* Idle protocol: message-proportional allocation (inbox cells, effect
     frames) would otherwise drown the per-edge signal.  The per-run cost
     left is the O(n) fiber machinery, identical for both graphs. *)
  let protocol ctx = E.my_id ctx in
  let faults = Congest.Faults.make ~seed:3 ~delay:0.2 ~max_delay:4 () in
  let alloc_per_run g =
    let pool = E.pool g in
    (* Warm-up grows the slabs and (for the faulted path) the fault-index
       array; afterwards runs must reuse them all. *)
    ignore (E.run ~pool ~faults g protocol);
    ignore (E.run ~pool ~faults g protocol);
    let before = Gc.allocated_bytes () in
    ignore (E.run ~pool ~faults g protocol);
    Gc.allocated_bytes () -. before
  in
  let sparse = Generators.cycle n in
  let dense =
    Generators.gnp (Random.State.make [| 11 |]) n (25.0 /. float_of_int n)
  in
  let msparse = Graph.m sparse and mdense = Graph.m dense in
  check cb "dense has many more edges" true (mdense > 8 * msparse);
  let a_sparse = alloc_per_run sparse and a_dense = alloc_per_run dense in
  (* Any reintroduced per-run O(m) array (the old per-run touched / fidx /
     send buffers were 16-32 B per edge, >= 150 kB at this density) trips
     the fixed slack. *)
  if a_dense > a_sparse +. 32768.0 then
    Alcotest.failf
      "per-run allocation grows with edge count: sparse (m=%d) %.0f B, \
       dense (m=%d) %.0f B"
      msparse a_sparse mdense a_dense

(* Heavy delayed traffic: every message delayed by up to 8 rounds over a
   multi-round protocol.  The round-indexed delay buckets must (a) agree
   with the engine's fault accounting, and (b) keep the run byte-identical
   across domain counts and fast-forward — the PR 3 differential contract
   under stress. *)
let test_delay_bucket_stress () =
  let g = Generators.grid 6 6 in
  let rounds = 30 in
  let protocol ctx =
    let acc = ref 0 in
    for _ = 1 to rounds do
      E.broadcast ctx (M.Int (E.my_id ctx));
      List.iter (fun (_, M.Int v) -> acc := !acc + v) (E.sync ctx)
    done;
    !acc
  in
  let faults = Congest.Faults.make ~seed:17 ~delay:1.0 ~max_delay:8 () in
  let reference = E.run ~faults g protocol in
  check cb "completed under full delay" true reference.E.completed;
  let s = reference.E.stats in
  (* delay=1.0: every send is delayed, so deliveries can never exceed
     delay events (entries still queued when the last fiber finishes are
     counted as delayed but never land). *)
  check cb "every delivery was delayed"
    true
    (s.Congest.Stats.delayed >= s.Congest.Stats.messages
    && s.Congest.Stats.messages > 0);
  List.iter
    (fun (domains, ff) ->
      let r = E.run ~domains ~fast_forward:ff ~faults g protocol in
      check cb
        (Printf.sprintf "identical outputs (domains=%d ff=%b)" domains ff)
        true
        (r.E.outputs = reference.E.outputs);
      check ci
        (Printf.sprintf "identical delayed count (domains=%d ff=%b)" domains
           ff)
        s.Congest.Stats.delayed r.E.stats.Congest.Stats.delayed;
      check ci
        (Printf.sprintf "identical bits (domains=%d ff=%b)" domains ff)
        s.Congest.Stats.total_bits r.E.stats.Congest.Stats.total_bits;
      check ci
        (Printf.sprintf "identical rounds (domains=%d ff=%b)" domains ff)
        s.Congest.Stats.rounds r.E.stats.Congest.Stats.rounds)
    [ (1, false); (2, true); (3, false); (4, true) ]

let () =
  Alcotest.run "congest"
    [
      ( "bits",
        [
          Alcotest.test_case "int_bits" `Quick test_int_bits;
          Alcotest.test_case "id_bits" `Quick test_id_bits;
          Alcotest.test_case "int_bits matches the per-bit loop" `Quick
            test_int_bits_matches_loop;
        ] );
      ( "engine",
        [
          Alcotest.test_case "terminates without messages" `Quick
            test_no_messages_terminates;
          Alcotest.test_case "single exchange" `Quick test_single_exchange;
          Alcotest.test_case "bfs rounds" `Quick
            test_bfs_rounds_match_eccentricity;
          Alcotest.test_case "send to non-neighbor" `Quick
            test_send_non_neighbor_rejected;
          Alcotest.test_case "max_rounds" `Quick test_max_rounds_timeout;
          Alcotest.test_case "message accounting" `Quick
            test_message_accounting;
          Alcotest.test_case "bandwidth charging" `Quick
            test_bandwidth_charging;
          Alcotest.test_case "deterministic under seed" `Quick
            test_determinism;
          Alcotest.test_case "inbox sorted" `Quick test_inbox_sorted_by_sender;
          Alcotest.test_case "idle" `Quick test_idle;
          Alcotest.test_case "strict mode rejects" `Quick test_strict_mode;
          Alcotest.test_case "strict mode within budget" `Quick
            test_strict_mode_ok_within_budget;
          q test_echo_qcheck;
        ] );
      ( "substrate",
        [
          Alcotest.test_case "no per-edge allocation with a warm pool" `Quick
            test_pool_no_per_edge_alloc;
          Alcotest.test_case "delay buckets under full-delay stress" `Quick
            test_delay_bucket_stress;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "max_rounds finalizes continuations" `Quick
            test_finalizers_run_on_max_rounds;
          Alcotest.test_case "strict failure finalizes continuations" `Quick
            test_finalizers_run_on_strict_failure;
          Alcotest.test_case "node exception finalizes continuations" `Quick
            test_finalizers_run_on_node_exception;
        ] );
      ( "bandwidth",
        [
          Alcotest.test_case "charged rounds pinned" `Quick
            test_charged_rounds_pinned;
          Alcotest.test_case "max edge bits is per destination" `Quick
            test_max_edge_bits_per_destination;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "identical transcripts" `Quick
            test_transcripts_identical;
          Alcotest.test_case "identical transcripts across domains" `Quick
            test_transcripts_identical_across_domains;
          Alcotest.test_case "inbox order with multi-send" `Quick
            test_inbox_sender_order_with_multisend;
        ] );
      ( "wait-fast-forward",
        [
          Alcotest.test_case "wait wakes on arrival" `Quick
            test_wait_returns_on_arrival;
          Alcotest.test_case "wait times out empty" `Quick
            test_wait_timeout_empty;
          Alcotest.test_case "wait with zero budget" `Quick
            test_wait_zero_budget;
          Alcotest.test_case "fast-forward accounting" `Quick
            test_fast_forward_accounting;
          Alcotest.test_case "fast-forward capped by max_rounds" `Quick
            test_fast_forward_capped_by_max_rounds;
          Alcotest.test_case "stats identical with traffic" `Quick
            test_fast_forward_stats_identical_with_traffic;
          Alcotest.test_case "on_round deltas sum to rounds" `Quick
            test_on_round_sums_to_rounds;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "accounting invariant in domains" `Quick
            test_sharded_accounting_invariant;
          Alcotest.test_case "lowest failing node wins" `Quick
            test_sharded_exception_choice;
          Alcotest.test_case "more domains than live nodes" `Quick
            test_sharded_oversubscribed;
        ] );
      ( "faults",
        [
          Alcotest.test_case "Faults.none is the identity" `Quick
            test_faults_none_identity;
          Alcotest.test_case "drop-all is charged silence" `Quick
            test_faults_drop_all;
          Alcotest.test_case "duplicate-all doubles delivery" `Quick
            test_faults_duplicate_all;
          Alcotest.test_case "delay lands one round late" `Quick
            test_faults_delay_arrival;
          Alcotest.test_case "crash-stop" `Quick test_faults_crash_stop;
          Alcotest.test_case "crash-recover" `Quick test_faults_crash_recover;
          Alcotest.test_case "crash inside the final skip, every projection"
            `Quick test_faults_crash_in_final_skip;
          Alcotest.test_case "deterministic + domain/ff invariant" `Quick
            test_faults_deterministic_and_invariant;
        ] );
      ( "record-errors",
        [
          Alcotest.test_case "all failures recorded across shards" `Quick
            test_record_mode_collects_all_failures;
          Alcotest.test_case "survivors complete" `Quick
            test_record_mode_survivors_complete;
          Alcotest.test_case "propagate default unchanged" `Quick
            test_propagate_default_unchanged;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "series matches stats" `Quick
            test_telemetry_series_matches_stats;
          Alcotest.test_case "phase labels" `Quick test_telemetry_phase_labels;
          Alcotest.test_case "empty phases interleaved with fast-forward"
            `Quick test_telemetry_empty_phases_with_ff;
          Alcotest.test_case "series length across domains and fast-forward"
            `Quick test_telemetry_series_length_domains_ff;
          Alcotest.test_case "fast-forward = empty ticks, series on and off"
            `Quick test_telemetry_fast_forward_is_empty_ticks;
        ] );
      ( "stats",
        [ Alcotest.test_case "charge and merge" `Quick test_stats_charge_and_merge ]
      );
      ( "protocols",
        [
          Alcotest.test_case "bfs levels" `Quick test_protocols_bfs;
          Alcotest.test_case "min-id leader" `Quick test_protocols_leader;
          Alcotest.test_case "flood-echo count" `Quick test_protocols_count;
          q test_protocols_count_qcheck;
          q test_protocols_compiled_differential;
          Alcotest.test_case "kernel Park 0 / Park -3 is one round" `Quick
            test_kernel_park_clamp;
          Alcotest.test_case "kernel adapter matches direct stepping" `Quick
            test_adapter_matches_direct;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "parks far beyond the wheel" `Quick
            test_compiled_far_parks;
          Alcotest.test_case "arrivals at halted nodes" `Quick
            test_compiled_halted_arrivals;
          Alcotest.test_case "max_rounds cut leaves nodes parked" `Quick
            test_compiled_max_rounds_cut;
          Alcotest.test_case "hook exception, then the same pool" `Quick
            test_compiled_hook_exception;
          Alcotest.test_case "no allocation per delivery" `Quick
            test_compiled_alloc_per_message;
        ] );
    ]
