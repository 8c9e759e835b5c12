(* The tracing subsystem: Congest.Trace ring semantics, engine-recorded
   event streams, the determinism contract (simulated accounting and
   events are byte-identical for any domain count, and invariant under
   fast-forwarding), and the Report.Ctrace / Report.Perfetto exporters. *)

open Graphlib
module T = Congest.Trace
module J = Report.Json
module CP = Obs.Critpath
module CR = Report.Critpath_report

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

module M = struct
  type t = Int of int

  let bits (Int v) = Congest.Bits.int_bits ~universe:(abs v + 2)
end

module E = Congest.Engine.Make (M)

(* A trace over a fresh telemetry with series, as planartest builds one
   for --trace --stats-json. *)
let new_trace ?config () = T.create ?config (Congest.Telemetry.create ())

(* One round close as Congest.Account makes it: the counts go into the
   trace's telemetry, the Round event into its ring. *)
let tick tr ~round ~bits ~frames ~messages ~stepped =
  Congest.Telemetry.tick (T.telemetry tr) ~stepped ~domains:1 ~dropped:0
    ~duplicated:0 ~delayed:0 ~crashed:0 ~bits ~frames ~messages;
  T.round_tick tr ~round ~bits ~frames ~messages ~stepped

let events t =
  let acc = ref [] in
  T.iter_events t (fun e -> acc := e :: !acc);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Ring buffer and sampling                                            *)
(* ------------------------------------------------------------------ *)

let test_ring_overflow () =
  let tr =
    new_trace
      ~config:{ T.default_config with T.capacity = 8 }
      ()
  in
  for r = 0 to 19 do
    tick tr ~round:r ~bits:r ~frames:1 ~messages:0 ~stepped:0
  done;
  let tot = T.totals tr in
  check ci "every push counted" 20 tot.T.recorded;
  check ci "evictions counted honestly" 12 tot.T.overwritten;
  (* Aggregates are exact despite the evictions... *)
  check ci "total rounds exact" 20 tot.T.rounds;
  check ci "total bits exact" (19 * 20 / 2) tot.T.bits;
  (* ...while the ring holds only the newest [capacity] events. *)
  let evs = events tr in
  check ci "ring holds capacity events" 8 (List.length evs);
  (match List.hd evs with
  | T.Round { round; _ } -> check ci "oldest survivor" 12 round
  | _ -> Alcotest.fail "expected a Round event");
  match List.rev evs with
  | T.Round { round; _ } :: _ -> check ci "newest survivor" 19 round
  | _ -> Alcotest.fail "expected a Round event"

let test_sampling () =
  let tr =
    new_trace
      ~config:
        {
          T.capacity = 256;
          sample_messages = 2;
          sample_fibers = 2;
          sample_spans = 2;
        }
      ()
  in
  for i = 0 to 4 do
    T.message tr ~round:1 ~sent:0 ~sender:i ~dest:0 ~edge:i ~bits:8
  done;
  let msgs =
    List.filter (function T.Message _ -> true | _ -> false) (events tr)
  in
  check ci "every 2nd message survives" 3 (List.length msgs);
  check ci "the rest counted as sampled out" 2 (T.totals tr).T.sampled_out;
  (* Fiber sampling keys on the node id, so one node's lifecycle is
     either fully present or fully absent. *)
  check cb "even node sampled in" true (T.want_fiber tr 0);
  check cb "odd node sampled out" false (T.want_fiber tr 1);
  T.fiber_resume tr ~round:1 ~node:1 ~cause:T.Wake_deadline ~sender:(-1)
    ~sent:(-1);
  check cb "no event for a sampled-out fiber" true
    (not
       (List.exists (function T.Resume _ -> true | _ -> false) (events tr)));
  (* Span sampling drops whole open/close pairs; the body still runs. *)
  let ran = ref 0 in
  T.span tr "s" (fun () -> incr ran);
  T.span tr "s" (fun () -> incr ran);
  check ci "both span bodies ran" 2 !ran;
  check ci "one open/close pair survives" 2
    (List.length
       (List.filter
          (function T.Span_open _ | T.Span_close _ -> true | _ -> false)
          (events tr)))

let test_phases_and_spans () =
  let tr = new_trace () in
  (* The implicit "run" phase records nothing, so it is dropped. *)
  T.phase tr "a";
  tick tr ~round:0 ~bits:4 ~frames:1 ~messages:1 ~stepped:2;
  T.span tr "inner" (fun () -> ());
  T.phase tr "b";
  (* "b" stays empty: dropped from both views, keeping them aligned. *)
  T.finish tr;
  check
    (Alcotest.list Alcotest.string)
    "empty phases dropped (sim view)" [ "a" ]
    (List.map (fun (p : T.sim_phase) -> p.T.label) (T.sim_phases tr));
  check
    (Alcotest.list Alcotest.string)
    "empty phases dropped (host view)" [ "a" ]
    (List.map (fun (p : T.host_phase) -> p.T.label) (T.host_phases tr));
  let labels =
    List.filter_map
      (function
        | T.Phase_open { label; _ } -> Some ("open:" ^ label)
        | T.Phase_close { label; _ } -> Some ("close:" ^ label)
        | T.Span_open { label; _ } -> Some ("span:" ^ label)
        | _ -> None)
      (events tr)
  in
  check
    (Alcotest.list Alcotest.string)
    "marker order" [ "open:a"; "span:inner"; "close:a"; "open:b" ] labels;
  (* "a" closes when "b" opens; "b" never records a round, so [finish]
     emits no further close marker.  Idempotence: *)
  T.finish tr;
  check ci "finish is idempotent" 1
    (List.length (T.sim_phases tr))

(* ------------------------------------------------------------------ *)
(* Engine recording                                                    *)
(* ------------------------------------------------------------------ *)

(* Staggered ping/echo over a star: exercises parking, waking, traffic
   and a quiescent span the engine can fast-forward. *)
let star_run ?faults ?(domains = 1) ?(fast_forward = true) ~trace () =
  E.run ?faults ~trace ~domains ~fast_forward (Generators.star 29)
    (fun ctx ->
      if E.my_id ctx = 0 then begin
        E.idle ctx 12;
        E.broadcast ctx (M.Int 5);
        let echoes = E.wait ctx 30 in
        List.length echoes
      end
      else
        match E.wait ctx 60 with
        | (0, M.Int v) :: _ ->
            E.send ctx ~dest:0 (M.Int (v * 2));
            ignore (E.wait ctx 1);
            v
        | _ -> -1)

let test_engine_records () =
  let tr = new_trace () in
  let res = star_run ~trace:tr () in
  T.finish tr;
  let tot = T.totals tr in
  (match T.meta tr with
  | Some (n, m, bw) ->
      check ci "meta n" 29 n;
      check ci "meta m" 28 m;
      check cb "bandwidth positive" true (bw > 0)
  | None -> Alcotest.fail "meta not recorded");
  check ci "rounds match stats" res.E.stats.Congest.Stats.rounds tot.T.rounds;
  check ci "frames match charged rounds"
    res.E.stats.Congest.Stats.charged_rounds tot.T.frames;
  check ci "bits match stats" res.E.stats.Congest.Stats.total_bits tot.T.bits;
  check ci "messages match stats" res.E.stats.Congest.Stats.messages
    tot.T.messages;
  check ci "fast-forward matches stats"
    res.E.stats.Congest.Stats.fast_forwarded_rounds tot.T.fast_forwarded;
  let has p = List.exists p (events tr) in
  check cb "round events" true (has (function T.Round _ -> true | _ -> false));
  check cb "message events" true
    (has (function T.Message _ -> true | _ -> false));
  check cb "park events" true (has (function T.Park _ -> true | _ -> false));
  check cb "resume events" true
    (has (function T.Resume _ -> true | _ -> false));
  check cb "fast-forward events" true
    (has (function T.Fast_forward _ -> true | _ -> false));
  (* Every delivery happens strictly after its send on the timeline. *)
  T.iter_events tr (function
    | T.Message { round; sent; _ } ->
        check cb "sent before delivered" true (sent < round)
    | _ -> ())

let test_engine_records_faults () =
  let tr = new_trace () in
  let faults = Congest.Faults.make ~seed:5 ~drop:0.3 () in
  ignore (star_run ~faults ~trace:tr ());
  T.finish tr;
  let tot = T.totals tr in
  check cb "drops fired" true (tot.T.dropped > 0);
  (* Fault events are never sampled or lost below ring capacity, so the
     stream count equals the exact aggregate. *)
  let drop_events =
    List.filter
      (function T.Fault { kind = T.Drop; _ } -> true | _ -> false)
      (events tr)
  in
  check ci "one Drop event per dropped message" tot.T.dropped
    (List.length drop_events)

(* The determinism contract, at the event level: strip the host-side
   Shard events and the stream is identical for any domain count. *)
let sim_events tr =
  List.filter (function T.Shard _ -> true | _ -> false) (events tr)
  |> fun shards ->
  ( List.filter (function T.Shard _ -> false | _ -> true) (events tr),
    List.length shards )

let sim_totals (t : T.totals) =
  (t.T.rounds, t.T.frames, t.T.bits, t.T.messages, t.T.fast_forwarded,
   t.T.dropped, t.T.duplicated, t.T.delayed, t.T.crashed)

let test_domain_count_invariance () =
  let run domains =
    let tr = new_trace () in
    let faults = Congest.Faults.make ~seed:2 ~drop:0.15 () in
    ignore (star_run ~faults ~domains ~trace:tr ());
    T.finish tr;
    tr
  in
  let t1 = run 1 and t3 = run 3 in
  check cb "sim totals identical" true
    (sim_totals (T.totals t1) = sim_totals (T.totals t3));
  check cb "sim phases identical" true (T.sim_phases t1 = T.sim_phases t3);
  let ev1, shards1 = sim_events t1 in
  let ev3, shards3 = sim_events t3 in
  check ci "serial run never shards" 0 shards1;
  check cb "sharded run shards" true (shards3 > 0);
  check cb "simulated event stream identical" true (ev1 = ev3)

let test_fast_forward_invariance () =
  let run fast_forward =
    let tr = new_trace () in
    ignore (star_run ~fast_forward ~trace:tr ());
    T.finish tr;
    tr
  in
  let t_on = run true and t_off = run false in
  let on = T.totals t_on and off = T.totals t_off in
  check cb "ff actually fired" true (on.T.fast_forwarded > 0);
  check ci "ff off records none" 0 off.T.fast_forwarded;
  check cb "accounting otherwise identical" true
    ( on.T.rounds = off.T.rounds && on.T.frames = off.T.frames
    && on.T.bits = off.T.bits
    && on.T.messages = off.T.messages );
  List.iter2
    (fun (a : T.sim_phase) (b : T.sim_phase) ->
      check cb "per-phase accounting identical" true
        ( a.T.label = b.T.label && a.T.rounds = b.T.rounds
        && a.T.bits = b.T.bits && a.T.frames = b.T.frames
        && a.T.messages = b.T.messages ))
    (T.sim_phases t_on) (T.sim_phases t_off)

(* The engine's promise is per event, not per aggregate: the same tester
   run at --domains 1 and --domains 4 records the same .ctrace view —
   every simulated ring event in order (the host-side shard records
   aside), the exact totals and the per-phase accounting — with
   fast-forward on and off, on a planar grid and on a far-from-planar
   input (Stage I's reject path).  The ring is sized to hold every
   event, so nothing is compared lossily. *)
let test_events_identical_across_domains () =
  let grid = Generators.grid 10 10 in
  let far =
    Generators.far_from_planar (Random.State.make [| 5 |]) ~n:120 ~eps:0.25
  in
  let view domains fast_forward g =
    let tr =
      new_trace ~config:{ T.default_config with T.capacity = 1 lsl 21 } ()
    in
    ignore
      (Tester.Planarity_tester.run ~domains ~fast_forward ~trace:tr ~seed:1 g
         ~eps:0.3);
    T.finish tr;
    Report.Ctrace.of_trace tr
  in
  let simulated v =
    List.filter
      (function T.Shard _ -> false | _ -> true)
      (Array.to_list v.Report.Ctrace.events)
  in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun fast_forward ->
          let tag what = Printf.sprintf "%s ff=%b: %s" name fast_forward what in
          let s = view 1 fast_forward g and p = view 4 fast_forward g in
          let ev_s = simulated s and ev_p = simulated p in
          check ci (tag "ring kept every event") 0
            s.Report.Ctrace.totals.T.overwritten;
          check cb (tag "events recorded") true (ev_s <> []);
          check cb (tag "sharded") true
            (Array.exists
               (function T.Shard _ -> true | _ -> false)
               p.Report.Ctrace.events);
          check ci (tag "event count") (List.length ev_s) (List.length ev_p);
          check cb (tag "events identical") true (ev_s = ev_p);
          check cb (tag "totals identical") true
            (sim_totals s.Report.Ctrace.totals
            = sim_totals p.Report.Ctrace.totals);
          check cb (tag "sim phases identical") true
            (s.Report.Ctrace.sim_phases = p.Report.Ctrace.sim_phases))
        [ true; false ])
    [ ("grid", grid); ("far", far) ]

(* Full stack: the tester threads span/phase labels down through
   Partition.Stage1 and Prims, and the contract survives the trip. *)
let test_tester_trace_determinism () =
  let g = Generators.apollonian (Random.State.make [| 3 |]) 40 in
  let run domains =
    let tr = new_trace () in
    ignore
      (Tester.Planarity_tester.run ~domains ~trace:tr ~seed:1 g ~eps:0.3);
    T.finish tr;
    tr
  in
  let t1 = run 1 and t2 = run 2 in
  check cb "sim totals identical across domains" true
    (sim_totals (T.totals t1) = sim_totals (T.totals t2));
  check cb "sim phases identical across domains" true
    (T.sim_phases t1 = T.sim_phases t2);
  let labels = List.map (fun (p : T.sim_phase) -> p.T.label) (T.sim_phases t1) in
  check cb "stage1 phases labelled" true
    (List.exists
       (fun l -> String.length l >= 12 && String.sub l 0 12 = "stage1-phase")
       labels);
  check cb "stage2 labelled" true (List.mem "stage2" labels);
  check cb "primitive spans recorded" true
    (List.exists
       (function
         | T.Span_open { label = "bcast" | "converge" | "boundary"
                               | "refresh-roots"; _ } -> true
         | _ -> false)
       (events t1))

(* Satellite of the compiled-mode PR: checkpoint snapshots now carry the
   trace state, so a killed-and-resumed --trace run must produce the same
   .ctrace aggregates as an uninterrupted one.  Host-side wall-clock and
   GC deltas legitimately restart at the resume point, so the comparison
   is on the simulated side: totals, per-phase aggregates, config. *)
exception Simulated_kill

let test_checkpoint_resume_trace_identical () =
  let g = Generators.grid 20 20 in
  let eps = 0.05 and seed = 2 in
  let tr_ref = new_trace () in
  ignore (Tester.Planarity_tester.run ~trace:tr_ref g ~eps ~seed);
  T.finish tr_ref;
  let store = ref None in
  let tr1 = new_trace () in
  let kill_ck =
    {
      Tester.Planarity_tester.every = 1;
      load = (fun () -> None);
      save =
        (fun s ->
          (* Marshal round-trip: the snapshot (trace state included) must
             be marshal-safe, exactly as the file container stores it. *)
          store := Some (Marshal.from_string (Marshal.to_string s []) 0);
          raise Simulated_kill);
    }
  in
  (try
     ignore
       (Tester.Planarity_tester.run ~trace:tr1 ~checkpoint:kill_ck g ~eps
          ~seed);
     Alcotest.fail "simulated kill did not propagate"
   with Simulated_kill -> ());
  (match !store with
  | Some s -> (
      check cb "snapshot carries the trace state" true
        (s.Tester.Planarity_tester.ck_trace <> None);
      (* ...and the telemetry once: the trace copy's telemetry is the
         snapshot's telemetry slot, also after the marshal round-trip. *)
      match
        ( s.Tester.Planarity_tester.ck_trace,
          s.Tester.Planarity_tester.ck_telemetry )
      with
      | Some tr, Some tel ->
          check cb "telemetry carried once" true (T.telemetry tr == tel)
      | _ -> Alcotest.fail "snapshot lacks the telemetry")
  | None -> Alcotest.fail "no snapshot captured");
  let tr2 = new_trace () in
  let resume_ck =
    {
      Tester.Planarity_tester.every = 1;
      load = (fun () -> !store);
      save = (fun _ -> ());
    }
  in
  ignore
    (Tester.Planarity_tester.run ~trace:tr2 ~checkpoint:resume_ck g ~eps ~seed);
  T.finish tr2;
  check cb "sim totals identical after kill+resume" true
    (sim_totals (T.totals tr_ref) = sim_totals (T.totals tr2));
  check cb "sim phases identical after kill+resume" true
    (T.sim_phases tr_ref = T.sim_phases tr2);
  check cb "config identical" true (T.config tr_ref = T.config tr2);
  (* The causal wake slots ride through the checkpoint snapshot unchanged,
     so the critical path of the resumed run is the reference run's. *)
  check cb "sim event stream identical after kill+resume" true
    (fst (sim_events tr_ref) = fst (sim_events tr2));
  check cb "critpath identical after kill+resume" true
    (CR.analyze (Report.Ctrace.of_trace tr_ref)
    = CR.analyze (Report.Ctrace.of_trace tr2))

(* A checkpoint taken without a trace, resumed with one: the trace
   projects the restored telemetry, so its simulated view covers the
   whole run; the phases closed before the resume have an empty host
   profile, and host and sim phases stay aligned one to one. *)
let test_untraced_checkpoint_traced_resume () =
  let g = Generators.grid 20 20 in
  let eps = 0.05 and seed = 2 in
  let tr_ref = new_trace () in
  ignore (Tester.Planarity_tester.run ~trace:tr_ref g ~eps ~seed);
  T.finish tr_ref;
  let store = ref None and saves = ref 0 in
  let kill_ck =
    {
      Tester.Planarity_tester.every = 1;
      load = (fun () -> None);
      save =
        (fun s ->
          incr saves;
          if !saves = 3 then begin
            store := Some s;
            raise Simulated_kill
          end);
    }
  in
  (try
     ignore
       (Tester.Planarity_tester.run ~telemetry:(Congest.Telemetry.create ())
          ~checkpoint:kill_ck g ~eps ~seed);
     Alcotest.fail "simulated kill did not propagate"
   with Simulated_kill -> ());
  let tr = new_trace () in
  ignore
    (Tester.Planarity_tester.run ~trace:tr
       ~checkpoint:
         { Tester.Planarity_tester.every = 1; load = (fun () -> !store);
           save = (fun _ -> ()) }
       g ~eps ~seed);
  T.finish tr;
  check cb "sim totals cover the whole run" true
    (sim_totals (T.totals tr_ref) = sim_totals (T.totals tr));
  check cb "sim phases cover the whole run" true
    (T.sim_phases tr_ref = T.sim_phases tr);
  let host = T.host_phases tr in
  check (Alcotest.list Alcotest.string) "host phases aligned"
    (List.map (fun (p : T.sim_phase) -> p.T.label) (T.sim_phases tr))
    (List.map (fun (p : T.host_phase) -> p.T.label) host);
  (* Phases 1 and 2 closed before the snapshot; phase 3 was still open
     and is closed by the resumed, traced run. *)
  check (Alcotest.list cb) "pre-resume phases have no host profile"
    [ true; true; false ]
    (List.map
       (fun (p : T.host_phase) -> p.T.wall_s = 0.0 && p.T.minor_words = 0.0)
       (List.filteri (fun i _ -> i < 3) host))

(* Host profiles are one per telemetry phase.  A trace built over a
   telemetry with closed phases gives those a zero profile; a rotation
   that bypasses [Trace.phase] breaks the pairing and is refused rather
   than shifting later profiles onto the wrong labels. *)
let test_host_phases_alignment () =
  let tel = Congest.Telemetry.create ~series:false () in
  let tick_tel () =
    Congest.Telemetry.tick tel ~stepped:1 ~domains:1 ~dropped:0
      ~duplicated:0 ~delayed:0 ~crashed:0 ~bits:8 ~frames:1 ~messages:1
  in
  Congest.Telemetry.phase tel "a";
  tick_tel ();
  Congest.Telemetry.phase tel "b";
  tick_tel ();
  let tr = T.create tel in
  T.phase tr "c";
  tick tr ~round:2 ~bits:8 ~frames:1 ~messages:1 ~stepped:1;
  T.finish tr;
  check
    (Alcotest.list Alcotest.string)
    "one host profile per phase" [ "a"; "b"; "c" ]
    (List.map (fun (p : T.host_phase) -> p.T.label) (T.host_phases tr));
  let a = List.hd (T.host_phases tr) in
  check cb "phase closed before the trace: zero profile" true
    (a.T.wall_s = 0.0 && a.T.minor_words = 0.0 && a.T.major_words = 0.0
    && a.T.minor_collections = 0);
  let tr = new_trace () in
  T.phase tr "a";
  tick tr ~round:0 ~bits:8 ~frames:1 ~messages:1 ~stepped:1;
  Congest.Telemetry.phase (T.telemetry tr) "rogue";
  tick tr ~round:1 ~bits:8 ~frames:1 ~messages:1 ~stepped:1;
  check cb "rotation behind the trace's back refused" true
    (match T.host_phases tr with
    | _ -> false
    | exception Assert_failure _ -> true)

(* The snapshot plumbing underneath: copy is a deep, independent image
   and restore_into overwrites the destination with it. *)
let test_copy_restore_into () =
  let tr = new_trace () in
  ignore (star_run ~trace:tr ());
  T.finish tr;
  let snap = T.copy tr in
  check cb "copy preserves totals" true (T.totals snap = T.totals tr);
  check cb "copy preserves events" true (events snap = events tr);
  (* Mutating the original must not leak into the copy... *)
  ignore (star_run ~trace:tr ());
  check cb "copy unaffected by later recording" true
    (sim_totals (T.totals snap) <> sim_totals (T.totals tr));
  (* ...and restore_into brings a fresh recorder to the copied state. *)
  let dst = new_trace () in
  Congest.Telemetry.restore_into (T.telemetry dst) ~from:(T.telemetry snap);
  T.restore_into dst ~from:snap;
  check cb "restore_into reproduces totals" true
    (T.totals dst = T.totals snap);
  check cb "restore_into reproduces events" true (events dst = events snap);
  check cb "restore_into reproduces phases" true
    (T.sim_phases dst = T.sim_phases snap)

(* ------------------------------------------------------------------ *)
(* Critical path                                                       *)
(* ------------------------------------------------------------------ *)

let analyze tr = CR.analyze (Report.Ctrace.of_trace tr)

(* Structural sanity shared by every critpath assertion below: the hops
   chain head-to-tail and their weights telescope to the path length. *)
let check_chain (r : CP.report) =
  let rec go from_node from_round = function
    | [] -> ()
    | (h : CP.hop) :: rest ->
        check ci "hop chains from previous node" from_node h.CP.from_node;
        check ci "hop chains from previous round" from_round h.CP.from_round;
        check ci "hop weight telescopes" (h.CP.round - h.CP.from_round)
          h.CP.rounds;
        check cb "excess within the hop" true
          (h.CP.excess >= 0 && h.CP.excess <= max 0 (h.CP.rounds - 1));
        go h.CP.node h.CP.round rest
  in
  (match r.CP.hops with
  | [] -> check ci "empty path is zero rounds" 0 r.CP.path_rounds
  | (h : CP.hop) :: _ -> go h.CP.from_node r.CP.start_round r.CP.hops);
  check ci "hop rounds sum to the path"
    (List.fold_left (fun a (h : CP.hop) -> a + h.CP.rounds) 0 r.CP.hops)
    r.CP.path_rounds;
  check ci "path spans start to end" (r.CP.end_round - r.CP.start_round)
    r.CP.path_rounds;
  check ci "rounds decompose into deliver/slack/excess/stitch"
    (r.CP.deliver_rounds + r.CP.timer_rounds + r.CP.excess_rounds
   + r.CP.stitch_rounds)
    r.CP.path_rounds;
  check ci "contracted = path - excess"
    (r.CP.path_rounds - r.CP.excess_rounds)
    r.CP.contracted_rounds

(* Every engine-recorded resume carries its causal wake slot, and every
   deliver wake names a frame the ring actually recorded. *)
let test_resume_causal_slots () =
  let tr = new_trace () in
  ignore (star_run ~trace:tr ());
  T.finish tr;
  let frames = Hashtbl.create 64 in
  T.iter_events tr (function
    | T.Message { round; sent; sender; dest; _ } ->
        Hashtbl.replace frames (dest, round, sender, sent) ()
    | _ -> ());
  let resumes = ref 0 and delivers = ref 0 in
  T.iter_events tr (function
    | T.Resume { round; node; cause; sender; sent } -> (
        incr resumes;
        check cb "cause recorded" true (cause <> T.Wake_unknown);
        match cause with
        | T.Wake_deliver ->
            incr delivers;
            check cb "deliver slot names a recorded frame" true
              (Hashtbl.mem frames (node, round, sender, sent))
        | _ ->
            check cb "deadline resumes carry no frame" true
              (sender = -1 && sent = -1))
    | _ -> ());
  check cb "resumes present" true (!resumes > 0);
  check cb "deliver wakes present" true (!delivers > 0)

(* Delay-free tester run: the causal chain explains every round — path
   length equals the run's total rounds, with zero excess. *)
let test_critpath_tester_exact () =
  let g = Generators.apollonian (Random.State.make [| 3 |]) 40 in
  let tr =
    new_trace ~config:{ T.default_config with T.capacity = 1 lsl 20 } ()
  in
  ignore (Tester.Planarity_tester.run ~trace:tr ~seed:1 g ~eps:0.3);
  T.finish tr;
  let v = Report.Ctrace.of_trace tr in
  check cb "ring complete" false (CR.lossy_view v);
  let r = CR.analyze v in
  check_chain r;
  check cb "path non-trivial" true (r.CP.path_rounds > 0);
  check ci "path spans the whole run" r.CP.total_rounds r.CP.path_rounds;
  check ci "no excess on a delay-free run" 0 r.CP.excess_rounds;
  check cb "not lossy" false r.CP.lossy;
  check ci "phase profile attributes the whole path"
    (r.CP.path_rounds - r.CP.stitch_rounds)
    (List.fold_left
       (fun a (p : CP.phase_profile) ->
         a + p.CP.deliver_rounds + p.CP.timer_rounds + p.CP.excess_rounds)
       0 r.CP.phases);
  check cb "tester phases named" true
    (List.exists (fun (p : CP.phase_profile) -> p.CP.phase = "stage2")
       r.CP.phases
    || List.exists
         (fun (p : CP.phase_profile) ->
           String.length p.CP.phase >= 6 && String.sub p.CP.phase 0 6 = "stage1")
         r.CP.phases)

(* A delivery-driven relay chain: node 0 fires a token down the path,
   every other node parks on a long deadline and forwards on arrival.
   The run's length is the sum of the wire latencies, which makes delay
   inflation exactly attributable. *)
let relay_run ?faults ~trace k =
  E.run ?faults ~trace (Generators.path k) (fun ctx ->
      let me = E.my_id ctx in
      if me = 0 then begin
        E.send ctx ~dest:1 (M.Int 1);
        ignore (E.wait ctx 1);
        0
      end
      else
        match E.wait ctx 500 with
        | (_, M.Int v) :: _ ->
            if me < k - 1 then E.send ctx ~dest:(me + 1) (M.Int (v + 1));
            ignore (E.wait ctx 1);
            v
        | _ -> -1)

let test_critpath_relay_clean () =
  let tr = new_trace () in
  ignore (relay_run ~trace:tr 12);
  T.finish tr;
  let r = analyze tr in
  check_chain r;
  check ci "one deliver hop per relay edge" 11 r.CP.deliver_hops;
  check ci "clean wire: no excess" 0 r.CP.excess_rounds;
  check ci "path spans the run" r.CP.total_rounds r.CP.path_rounds;
  (* The blame table ranks the relay's directed edges. *)
  check ci "blame covers the relay edges" 11 (List.length r.CP.edges);
  List.iter
    (fun (b : CP.edge_blame) ->
      check ci "each edge blamed once" 1 b.CP.hops;
      check ci "each edge costs its nominal round" 1 b.CP.rounds)
    r.CP.edges

(* Delay storm on the relay: every frame arrives exactly one round late,
   the run inflates by one round per hop, and the fault-impact
   attribution accounts for the inflation exactly — contracting the
   injected delays recovers the clean run's length. *)
let test_critpath_relay_inflation () =
  let k = 12 in
  let clean = new_trace () in
  ignore (relay_run ~trace:clean k);
  T.finish clean;
  let rc = analyze clean in
  let delayed = new_trace () in
  let faults = Congest.Faults.make ~seed:1 ~delay:1.0 ~max_delay:1 () in
  ignore (relay_run ~faults ~trace:delayed k);
  T.finish delayed;
  let rd = analyze delayed in
  check_chain rd;
  check cb "delays inflated the run" true
    (rd.CP.path_rounds > rc.CP.path_rounds);
  check ci "every relay hop inflated" (k - 1) rd.CP.excess_rounds;
  check ci "excess accounts for the whole inflation"
    (rd.CP.path_rounds - rc.CP.path_rounds)
    rd.CP.excess_rounds;
  check ci "contracting the delays recovers the clean run"
    rc.CP.path_rounds rd.CP.contracted_rounds;
  (* The per-edge blame surfaces the inflation, hop by hop. *)
  check ci "blamed excess matches"
    rd.CP.excess_rounds
    (List.fold_left (fun a (b : CP.edge_blame) -> a + b.CP.excess) 0
       rd.CP.edges)

(* The reported path is invariant under fast-forwarding: the baseline's
   per-round spins collapse into the deadline waits they implement. *)
let test_critpath_fast_forward_invariance () =
  let run fast_forward =
    let tr = new_trace () in
    ignore (star_run ~fast_forward ~trace:tr ());
    T.finish tr;
    tr
  in
  let t_on = run true and t_off = run false in
  check cb "ff fired" true ((T.totals t_on).T.fast_forwarded > 0);
  check cb "critpath report identical under fast-forward" true
    (analyze t_on = analyze t_off)

(* Losing ring events must be surfaced, not silently analyzed around:
   the recorder feeds the host-side trace_dropped_events counter on both
   eviction and sampling, and the view is flagged lossy. *)
let test_dropped_events_metric () =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled was;
      Obs.Metrics.reset ())
    (fun () ->
      let value () =
        match
          List.find_opt
            (fun (f : Obs.Metrics.family) ->
              f.Obs.Metrics.name = "trace_dropped_events")
            (Obs.Metrics.snapshot ())
        with
        | Some
            {
              Obs.Metrics.series =
                [ { Obs.Metrics.value = Obs.Metrics.Counter_v v; _ } ];
              _;
            } ->
            v
        | _ -> Alcotest.fail "trace_dropped_events family missing"
      in
      let tr =
        new_trace ~config:{ T.default_config with T.capacity = 8 } ()
      in
      for r = 0 to 19 do
        T.round_tick tr ~round:r ~bits:0 ~frames:0 ~messages:0 ~stepped:0
      done;
      check ci "ring evictions counted" 12 (value ());
      check cb "view flagged lossy" true
        (CR.lossy_view (Report.Ctrace.of_trace tr));
      let tr2 =
        new_trace
          ~config:
            {
              T.capacity = 64;
              sample_messages = 2;
              sample_fibers = 1;
              sample_spans = 1;
            }
          ()
      in
      for i = 0 to 4 do
        T.message tr2 ~round:1 ~sent:0 ~sender:i ~dest:0 ~edge:i ~bits:8
      done;
      check ci "sampling holes add on" 14 (value ());
      check cb "sampled view flagged lossy" true
        (CR.lossy_view (Report.Ctrace.of_trace tr2)))

(* ------------------------------------------------------------------ *)
(* Ctrace: binary round-trip                                           *)
(* ------------------------------------------------------------------ *)

let with_tmp f =
  let path = Filename.temp_file "trace" ".ctrace" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let traced_run () =
  let tr = new_trace () in
  let faults = Congest.Faults.make ~seed:9 ~drop:0.1 ~duplicate:0.1 () in
  ignore (star_run ~faults ~domains:2 ~trace:tr ());
  T.finish tr;
  tr

let test_ctrace_roundtrip () =
  let tr = traced_run () in
  with_tmp (fun path ->
      Report.Ctrace.write path tr;
      let v = Report.Ctrace.read path in
      check ci "version" Report.Ctrace.version v.Report.Ctrace.version;
      check ci "n" 29 v.Report.Ctrace.n;
      check ci "m" 28 v.Report.Ctrace.m;
      check cb "totals survive" true (v.Report.Ctrace.totals = T.totals tr);
      check cb "config survives" true (v.Report.Ctrace.config = T.config tr);
      check cb "sim phases survive" true
        (v.Report.Ctrace.sim_phases = T.sim_phases tr);
      check cb "host phases survive" true
        (v.Report.Ctrace.host_phases = T.host_phases tr);
      check cb "events survive, oldest first" true
        (Array.to_list v.Report.Ctrace.events = events tr);
      (* of_trace is the same view without the filesystem. *)
      check cb "of_trace = write;read" true (Report.Ctrace.of_trace tr = v);
      (* Serialization is a pure function of the trace: write twice,
         byte-identical files. *)
      let bytes1 = read_file path in
      Report.Ctrace.write path tr;
      check cb "deterministic bytes" true (read_file path = bytes1))

let test_ctrace_bad_input () =
  let expect_failure name f =
    match f () with
    | (_ : Report.Ctrace.view) -> Alcotest.failf "%s: accepted" name
    | exception Failure msg ->
        check cb (name ^ ": message is specific") true
          (String.length msg > 10)
  in
  with_tmp (fun path ->
      let oc = open_out_bin path in
      output_string oc "NOTATRACEFILE AT ALL";
      close_out oc;
      expect_failure "bad magic" (fun () -> Report.Ctrace.read path));
  with_tmp (fun path ->
      let tr = traced_run () in
      Report.Ctrace.write path tr;
      let bytes = read_file path in
      (* Bump the version field (first int64 after the 8-byte magic). *)
      let patched = Bytes.of_string bytes in
      Bytes.set patched 8 '\x63';
      let oc = open_out_bin path in
      output_bytes oc patched;
      close_out oc;
      expect_failure "unknown version" (fun () -> Report.Ctrace.read path);
      (* Truncate mid-stream. *)
      let oc = open_out_bin path in
      output_string oc (String.sub bytes 0 (String.length bytes / 2));
      close_out oc;
      expect_failure "truncated" (fun () -> Report.Ctrace.read path))

(* ------------------------------------------------------------------ *)
(* Perfetto export                                                     *)
(* ------------------------------------------------------------------ *)

let test_perfetto_export () =
  let tr = traced_run () in
  let v = Report.Ctrace.of_trace tr in
  let j = Report.Perfetto.of_view v in
  let field k = function
    | J.Obj fields -> List.assoc k fields
    | _ -> Alcotest.fail "expected an object"
  in
  let evs =
    match field "traceEvents" j with
    | J.List l -> l
    | _ -> Alcotest.fail "traceEvents must be a list"
  in
  check cb "events exported" true (List.length evs > 0);
  (* Every row is a trace_event object with a phase tag; duration and
     complete events must carry timestamps. *)
  List.iter
    (fun e ->
      match field "ph" e with
      | J.String ph ->
          check cb "known phase tag" true
            (List.mem ph [ "B"; "E"; "X"; "i"; "s"; "f"; "C"; "M" ]);
          if ph <> "M" then (
            match field "ts" e with
            | J.Int ts -> check cb "timestamp non-negative" true (ts >= 0)
            | _ -> Alcotest.fail "ts must be an int")
      | _ -> Alcotest.fail "ph must be a string")
    evs;
  (match field "otherData" j with
  | J.Obj _ -> ()
  | _ -> Alcotest.fail "otherData must be an object");
  (* The export is a pure function of the view. *)
  check cb "deterministic" true
    (J.to_string j = J.to_string (Report.Perfetto.of_view v))

(* Shared helpers for picking apart the trace_event rows. *)
let doc_events j =
  match j with
  | J.Obj fields -> (
      match List.assoc "traceEvents" fields with
      | J.List l -> l
      | _ -> Alcotest.fail "traceEvents must be a list")
  | _ -> Alcotest.fail "expected an object"

let str k e =
  match e with
  | J.Obj f -> (
      match List.assoc_opt k f with Some (J.String s) -> Some s | _ -> None)
  | _ -> None

let num k e =
  match e with
  | J.Obj f -> (
      match List.assoc_opt k f with Some (J.Int i) -> Some i | _ -> None)
  | _ -> None

(* Message flow arrows: each recorded delivery exports one s/f pair
   under a private id, tail at the send round, head at the delivery
   round — round-tripped through the .ctrace container. *)
let test_perfetto_flow_events () =
  let tr = traced_run () in
  with_tmp (fun path ->
      Report.Ctrace.write path tr;
      let v = Report.Ctrace.read path in
      let evs = doc_events (Report.Perfetto.of_view v) in
      let deliveries =
        Array.to_list v.Report.Ctrace.events
        |> List.filter_map (function
             | T.Message { round; sent; _ } -> Some (sent, round)
             | _ -> None)
      in
      let flows ph =
        List.filter_map
          (fun e ->
            if str "cat" e = Some "message" && str "ph" e = Some ph then
              match (num "id" e, num "ts" e) with
              | Some id, Some ts -> Some (id, ts)
              | _ -> Alcotest.fail "flow event lacks id/ts"
            else None)
          evs
      in
      let starts = flows "s" and finishes = flows "f" in
      check ci "one flow tail per delivery" (List.length deliveries)
        (List.length starts);
      check ci "one flow head per delivery" (List.length deliveries)
        (List.length finishes);
      (* Ids are assigned in event order, so the k-th pair is the k-th
         recorded delivery; the arrow spans exactly its wire time. *)
      List.iteri
        (fun k (sent, round) ->
          let id, ts_s = List.nth starts k in
          let id', ts_f = List.nth finishes k in
          check ci "pair ids match" id id';
          check ci "tail at the send round" sent ts_s;
          check ci "head at the delivery round" round ts_f)
        deliveries)

(* Fast-forwarded quiescent spans export as X slices whose durations sum
   to the run's fast-forward total. *)
let test_perfetto_ff_spans () =
  let tr = new_trace () in
  ignore (star_run ~trace:tr ());
  T.finish tr;
  let v = Report.Ctrace.of_trace tr in
  let evs = doc_events (Report.Perfetto.of_view v) in
  let spans =
    List.filter (fun e -> str "name" e = Some "fast-forward") evs
  in
  check cb "ff spans exported" true (spans <> []);
  let total =
    List.fold_left
      (fun a e ->
        match num "dur" e with
        | Some d ->
            check cb "span has a start" true (num "ts" e <> None);
            a + d
        | None -> Alcotest.fail "ff span lacks dur")
      0 spans
  in
  check ci "span durations sum to the ff total"
    (T.totals tr).T.fast_forwarded total

(* The critical-path overlay: one pid-4 slice per hop, chained
   head-to-tail by flow arrows whose ids live above the message ids. *)
let test_perfetto_critpath_overlay () =
  let tr = new_trace () in
  ignore (star_run ~trace:tr ());
  T.finish tr;
  let v = Report.Ctrace.of_trace tr in
  let r = CR.analyze v in
  check cb "path found" true (r.CP.hops <> []);
  let evs =
    doc_events (Report.Perfetto.of_view ~critpath:r v)
    |> List.filter (fun e -> num "pid" e = Some 4)
  in
  let slices = List.filter (fun e -> str "ph" e = Some "X") evs in
  let starts = List.filter (fun e -> str "ph" e = Some "s") evs in
  let finishes = List.filter (fun e -> str "ph" e = Some "f") evs in
  let nh = List.length r.CP.hops in
  check ci "one slice per hop" nh (List.length slices);
  check ci "one arrow tail per hop" nh (List.length starts);
  check ci "one arrow head per hop" nh (List.length finishes);
  List.iteri
    (fun i (h : CP.hop) ->
      let s = List.nth starts i and f = List.nth finishes i in
      check ci "arrow id is the hop's" (1_000_000_000 + i)
        (Option.get (num "id" s));
      check ci "matching head id" (1_000_000_000 + i)
        (Option.get (num "id" f));
      check ci "tail at the hop's start" h.CP.from_round
        (Option.get (num "ts" s));
      check ci "head at the hop's end" h.CP.round (Option.get (num "ts" f));
      (* Consecutive hops share a round, so the arrows chain. *)
      if i + 1 < nh then
        check ci "arrows connect hop to hop"
          (Option.get (num "ts" f))
          (Option.get (num "ts" (List.nth starts (i + 1)))))
    r.CP.hops;
  (* Without the overlay no pid-4 rows exist. *)
  check cb "overlay is opt-in" true
    (List.for_all
       (fun e -> num "pid" e <> Some 4)
       (doc_events (Report.Perfetto.of_view v)))

let () =
  Alcotest.run "trace"
    [
      ( "ring",
        [
          Alcotest.test_case "overflow keeps exact aggregates" `Quick
            test_ring_overflow;
          Alcotest.test_case "per-category sampling" `Quick test_sampling;
          Alcotest.test_case "phases and spans" `Quick test_phases_and_spans;
          Alcotest.test_case "host phases one per telemetry phase" `Quick
            test_host_phases_alignment;
        ] );
      ( "engine",
        [
          Alcotest.test_case "records a run" `Quick test_engine_records;
          Alcotest.test_case "records faults exactly" `Quick
            test_engine_records_faults;
          Alcotest.test_case "invariant in domain count" `Quick
            test_domain_count_invariance;
          Alcotest.test_case "invariant under fast-forward" `Quick
            test_fast_forward_invariance;
          Alcotest.test_case "tester threads labels; deterministic" `Quick
            test_tester_trace_determinism;
          Alcotest.test_case "events identical across domain counts" `Quick
            test_events_identical_across_domains;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "kill + resume keeps .ctrace aggregates" `Quick
            test_checkpoint_resume_trace_identical;
          Alcotest.test_case "untraced checkpoint, traced resume" `Quick
            test_untraced_checkpoint_traced_resume;
          Alcotest.test_case "copy / restore_into round-trip" `Quick
            test_copy_restore_into;
        ] );
      ( "critpath",
        [
          Alcotest.test_case "resumes carry causal wake slots" `Quick
            test_resume_causal_slots;
          Alcotest.test_case "delay-free path spans the run" `Quick
            test_critpath_tester_exact;
          Alcotest.test_case "relay chain: clean attribution" `Quick
            test_critpath_relay_clean;
          Alcotest.test_case "relay chain: delay inflation attributed" `Quick
            test_critpath_relay_inflation;
          Alcotest.test_case "path invariant under fast-forward" `Quick
            test_critpath_fast_forward_invariance;
          Alcotest.test_case "lossy rings feed trace_dropped_events" `Quick
            test_dropped_events_metric;
        ] );
      ( "export",
        [
          Alcotest.test_case "ctrace round-trip" `Quick test_ctrace_roundtrip;
          Alcotest.test_case "ctrace rejects bad input" `Quick
            test_ctrace_bad_input;
          Alcotest.test_case "perfetto trace_event document" `Quick
            test_perfetto_export;
          Alcotest.test_case "perfetto message flow arrows" `Quick
            test_perfetto_flow_events;
          Alcotest.test_case "perfetto fast-forward spans" `Quick
            test_perfetto_ff_spans;
          Alcotest.test_case "perfetto critical-path overlay" `Quick
            test_perfetto_critpath_overlay;
        ] );
    ]
