(* perfbench — one measuring process of the repo benchmark.

   The process builds one workload's input the way [planartest gen] does,
   passes it through a [Gio] serialise/parse round-trip (the CLI's parse
   path), computes the ground truth with the left-right test and makes one
   discarded warm-up run; all of that is the set-up.  It then times tester
   runs.  [--seconds] is the budget of the whole process, set-up included:
   a run is started only if, judged by the previous one, it ends within the
   budget, but at least one run is always made.  A tester run is what
   [planartest test --stats-json] does: [Tester.Planarity_tester.run] with
   a telemetry recorder, then [Report.tester_stats] serialised to a string.

   Every run is gated: its verdict and [Report.Ledger.digest_core] must
   equal [--expect-verdict] / [--expect-digest] (the warm-up's outcome when
   they are not given), and a planar input must never be rejected.

   With [--trace FILE] every rep is a pair: that plain call and a traced run
   of the same call graph, the plain one first in odd reps and second in
   even reps so that neither always runs right after the other.  The traced
   run is [Tester.Harness.run] with the benchmark's own Stage II closure
   around [Tester.Stage2.run] and a path-less [Obs.Heartbeat] whose
   publications mark the Stage I phase boundaries.  Spans are recorded from this file only, kept in memory and
   written to FILE at exit as trace_event JSON, which Perfetto opens.

   The process prints one JSON object on stdout; perfbench/run.py turns the
   objects of several processes into the benchmark's metrics. *)

open Graphlib
module Json = Congest.Telemetry.Json

let eps = 0.1
let tester_seed = 3
let property = "planarity"
let now = Unix.gettimeofday

(* Words allocated so far.  A word promoted out of the minor heap is in
   both minor_words and promoted_words, so it counts once. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let mwords w = w /. 1e6

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb *. 1024. /. 1e6)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* The three families the workloads use, generated exactly as
   [planartest gen --family F --n N --param P --seed S] does. *)
let generate ~family ~n ~param ~seed =
  let rng = Random.State.make [| seed |] in
  match family with
  | "grid" ->
      let rows, cols = Generators.grid_dims n in
      Generators.grid rows cols
  | "apollonian" -> Generators.apollonian rng n
  | "far" -> Generators.far_from_planar rng ~n ~eps:param
  | f -> invalid_arg ("unknown family " ^ f)

(* --- spans --------------------------------------------------------------- *)

type span = {
  id : int;
  parent : int;  (* 0 = root *)
  name : string;
  run_id : string;
  t0 : float;
  t1 : float;
  args : (string * Json.t) list;
}

let spans = ref []
let span_count = ref 0

let add_span ?(parent = 0) ?(args = []) ~run_id name t0 t1 =
  incr span_count;
  spans := { id = !span_count; parent; name; run_id; t0; t1; args } :: !spans;
  !span_count

let write_spans path ~origin ~label =
  let us t = Json.Int (int_of_float ((t -. origin) *. 1e6)) in
  let meta name value =
    Json.Obj
      [ ("name", Json.String name); ("ph", Json.String "M");
        ("pid", Json.Int 1); ("tid", Json.Int 1);
        ("args", Json.Obj [ ("name", Json.String value) ]) ]
  in
  let event s =
    Json.Obj
      [ ("name", Json.String s.name);
        ("cat", Json.String "perfbench");
        ("ph", Json.String "X");
        ("ts", us s.t0);
        ("dur", Json.Int (int_of_float ((s.t1 -. s.t0) *. 1e6)));
        ("pid", Json.Int 1); ("tid", Json.Int 1);
        ( "args",
          Json.Obj
            ([ ("span_id", Json.Int s.id); ("parent", Json.Int s.parent);
               ("run_id", Json.String s.run_id);
               ("start_s", Json.Float (s.t0 -. origin));
               ("end_s", Json.Float (s.t1 -. origin)) ]
            @ s.args) ) ]
  in
  Json.write_file path
    (Json.Obj
       [ ( "traceEvents",
           Json.List
             (meta "process_name" ("perfbench " ^ label)
             :: meta "thread_name" "host"
             :: List.rev_map event !spans) );
         ("displayTimeUnit", Json.String "ms") ])

(* --- one tester run -------------------------------------------------------- *)

type config = {
  g : Graph.t;
  domains : int;
  mode : Congest.Compiled.mode;
}

type outcome = { verdict : string; digest : string }

let outcome_of (r : Tester.Planarity_tester.report) =
  let verdict =
    match r.verdict with
    | Tester.Planarity_tester.Accept -> "accept"
    | Reject _ -> "reject"
    | Degraded _ -> "degraded"
  in
  {
    verdict;
    digest =
      Report.Ledger.digest_core ~property ~verdict ~rounds:r.rounds
        ~nominal_rounds:r.nominal_rounds ~messages:r.messages
        ~total_bits:r.total_bits
        ~fast_forwarded_rounds:r.fast_forwarded_rounds ~dropped:r.dropped
        ~duplicated:r.duplicated ~delayed:r.delayed
        ~crashed_nodes:r.crashed_nodes;
  }

let stats_doc cfg ~telemetry r =
  Json.to_string
    (Report.tester_stats ~n:(Graph.n cfg.g) ~m:(Graph.m cfg.g) ~eps
       ~seed:tester_seed ~domains:cfg.domains ~telemetry r)

(* The product path, untraced: returns the report, wall seconds, CPU
   seconds and words allocated. *)
let plain_run cfg =
  let w0 = alloc_words () in
  let c0 = cpu_s () in
  let t0 = now () in
  let telemetry = Congest.Telemetry.create () in
  let r =
    Tester.Planarity_tester.run ~telemetry ~domains:cfg.domains ~mode:cfg.mode
      ~seed:tester_seed cfg.g ~eps
  in
  ignore (stats_doc cfg ~telemetry r : string);
  let t1 = now () in
  (r, t1 -. t0, cpu_s () -. c0, alloc_words () -. w0)

let report_of stage2 (t : Tester.Harness.totals) : Tester.Planarity_tester.report =
  {
    verdict = t.verdict;
    stage1 = t.stage1;
    stage2;
    rounds = t.rounds;
    nominal_rounds = t.nominal_rounds;
    messages = t.messages;
    total_bits = t.total_bits;
    fast_forwarded_rounds = t.fast_forwarded_rounds;
    dropped = t.dropped;
    duplicated = t.duplicated;
    delayed = t.delayed;
    crashed_nodes = t.crashed_nodes;
  }

(* The same call graph as [plain_run], seen from outside each layer.
   Returns the report and the per-layer record of this run; its spans go
   to [spans]. *)
let traced_run cfg ~run_id =
  (* Heartbeat publications, newest first: (time, words, progress).  The
     cadence bounds are out of reach, so only the forced publications
     fire: at attach (phases_done = 0), after every Stage I phase but the
     last, and at Stage II entry. *)
  let pubs = ref [] in
  let on_publish p = pubs := (now (), alloc_words (), p) :: !pubs in
  let heartbeat =
    Obs.Heartbeat.create ~every_rounds:max_int ~every_secs:Float.infinity
      ~on_publish ~run_id ~fingerprint:run_id ~property ()
  in
  let s2 = ref None in
  let stage2 st ~eps ~seed =
    let stats = st.Partition.State.stats in
    let rounds = stats.Congest.Stats.rounds
    and messages = stats.Congest.Stats.messages in
    let w_in = alloc_words () in
    let t_in = now () in
    let r = Tester.Stage2.run ~embedding:Tester.Stage2.Oracle st ~eps ~seed in
    let t_out = now () in
    s2 := Some (t_in, t_out, w_in, alloc_words (), rounds, messages);
    r
  in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let cpu0 = cpu_s () in
  let w0 = alloc_words () in
  let t0 = now () in
  let telemetry = Congest.Telemetry.create () in
  let stage2_result, totals =
    Tester.Harness.run ~seed:tester_seed ~telemetry ~domains:cfg.domains
      ~mode:cfg.mode ~heartbeat ~property ~stage2 cfg.g ~eps
  in
  let t_run = now () in
  let w_run = alloc_words () in
  let r = report_of stage2_result totals in
  ignore (stats_doc cfg ~telemetry r : string);
  let t1 = now () in
  let cpu = cpu_s () -. cpu0 in
  let w1 = alloc_words () in
  let majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
  (* Keep the first publication of each phases_done value: boundary k is
     the end of Stage I phase k. *)
  let boundaries =
    List.fold_left
      (fun acc ((_, _, (p : Obs.Heartbeat.progress)) as b) ->
        match acc with
        | (_, _, (q : Obs.Heartbeat.progress)) :: _
          when q.phases_done >= p.phases_done ->
            acc
        | _ -> b :: acc)
      [] (List.rev !pubs)
    |> List.rev
  in
  let s1_start, w_s1_start =
    match boundaries with (t, w, _) :: _ -> (t, w) | [] -> (t0, w0)
  in
  (* Stage I ends where Stage II starts, or where the run returns when
     Stage I rejected and Stage II never ran. *)
  let s1_end, w_s1_end, s1_rounds, s1_messages =
    match !s2 with
    | Some (t_in, _, w_in, _, rounds, messages) -> (t_in, w_in, rounds, messages)
    | None -> (t_run, w_run, totals.rounds, totals.messages)
  in
  let rep = add_span ~run_id "rep" t0 t1 in
  let harness = add_span ~parent:rep ~run_id "harness.run" t0 t_run in
  let stage1 =
    add_span ~parent:harness ~run_id "stage1" s1_start s1_end
      ~args:
        [ ("rounds", Json.Int s1_rounds); ("messages", Json.Int s1_messages);
          ("alloc_mw", Json.Float (mwords (w_s1_end -. w_s1_start))) ]
  in
  let rec phases k = function
    | (ta, _, (pa : Obs.Heartbeat.progress)) :: rest ->
        let tb, rounds, messages =
          match rest with
          | (tb, _, (pb : Obs.Heartbeat.progress)) :: _ ->
              (tb, pb.rounds, pb.messages)
          | [] -> (s1_end, s1_rounds, s1_messages)
        in
        (* With Stage II run, the last boundary is its entry: no phase
           follows it. *)
        if rest <> [] || !s2 = None then
          ignore
            (add_span ~parent:stage1 ~run_id
               (Printf.sprintf "stage1.phase-%d" k)
               ta tb
               ~args:
                 [ ("rounds", Json.Int (rounds - pa.rounds));
                   ("messages", Json.Int (messages - pa.messages)) ]
              : int);
        phases (k + 1) rest
    | [] -> ()
  in
  phases 1 boundaries;
  let stage2_s, stage2_words =
    match !s2 with
    | Some (t_in, t_out, w_in, w_out, rounds, messages) ->
        ignore
          (add_span ~parent:harness ~run_id "stage2" t_in t_out
             ~args:
               [ ("rounds", Json.Int (totals.rounds - rounds));
                 ("messages", Json.Int (totals.messages - messages)) ]
            : int);
        (t_out -. t_in, w_out -. w_in)
    | None -> (0.0, 0.0)
  in
  ignore (add_span ~parent:rep ~run_id "report" t_run t1 : int);
  let layer =
    Json.Obj
      [ ("wall_s", Json.Float (t1 -. t0));
        ("harness_s", Json.Float (t_run -. t0));
        ("stage1_s", Json.Float (s1_end -. s1_start));
        ("stage2_s", Json.Float stage2_s);
        ("report_s", Json.Float (t1 -. t_run));
        ("alloc_mw", Json.Float (mwords (w1 -. w0)));
        ("stage1_mw", Json.Float (mwords (w_s1_end -. w_s1_start)));
        ("stage2_mw", Json.Float (mwords stage2_words));
        ("stage1_rounds", Json.Int s1_rounds);
        ("stage1_messages", Json.Int s1_messages);
        ("rounds", Json.Int totals.rounds);
        ("messages", Json.Int totals.messages);
        ("ff_rounds", Json.Int totals.fast_forwarded_rounds);
        ("cpu_s", Json.Float cpu);
        ("major_collections", Json.Int majors) ]
  in
  (r, layer)

(* --- main ----------------------------------------------------------------- *)

let () =
  let family = ref "" and n = ref 0 and param = ref 0.2 and gen_seed = ref 7 in
  let mode_name = ref "fiber" and domains = ref 1 and seconds = ref 5.0 in
  let expect_verdict = ref "" and expect_digest = ref "" in
  let trace = ref "" and label = ref "perfbench" in
  let specs =
    [ ("--family", Arg.Set_string family, "F  grid, apollonian or far");
      ("--n", Arg.Set_int n, "N  vertices");
      ("--param", Arg.Set_float param, "P  family parameter (eps for far)");
      ("--gen-seed", Arg.Set_int gen_seed, "S  generator seed (default 7)");
      ("--mode", Arg.Set_string mode_name, "M  fiber or compiled");
      ("--domains", Arg.Set_int domains, "D  engine domains");
      ("--seconds", Arg.Set_float seconds, "T  budget of the whole process");
      ("--expect-verdict", Arg.Set_string expect_verdict, "V  pinned verdict");
      ("--expect-digest", Arg.Set_string expect_digest, "H  pinned digest_core");
      ("--trace", Arg.Set_string trace, "FILE  pair each run with a traced one");
      ("--label", Arg.Set_string label, "L  workload name for run ids") ]
  in
  let usage = "perfbench --family F --n N [options]" in
  let bad msg =
    prerr_endline ("perfbench: " ^ msg);
    Arg.usage specs usage;
    exit 2
  in
  Arg.parse specs (fun a -> bad ("unexpected argument " ^ a)) usage;
  let mode =
    match Congest.Compiled.mode_of_string !mode_name with
    | Some m -> m
    | None -> bad ("unknown --mode " ^ !mode_name)
  in
  if !n < 1 then bad "--n must be >= 1";
  if !domains < 1 then bad "--domains must be >= 1";
  let origin = now () in
  let run_id = Printf.sprintf "%s:gen=%d" !label !gen_seed in
  let g0 =
    try generate ~family:!family ~n:!n ~param:!param ~seed:!gen_seed
    with Invalid_argument msg -> bad msg
  in
  let t_gen = now () in
  let g = Gio.of_string (Gio.to_string g0) in
  let t_load = now () in
  let planar = Planarity.Lr.is_planar g in
  let t_lr = now () in
  let cfg = { g; domains = !domains; mode } in
  let warm, _, _, _ = plain_run cfg in
  let t_setup = now () in
  (* Memory is read here, after exactly one tester run, as a
     [planartest test] process would use it.  Later runs keep raising the
     high-water mark (to 1.9x on far-reject), so a reading at exit would
     depend on how many runs fitted in the budget. *)
  let peak_rss = peak_rss_mb () in
  let top_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let setup = add_span ~run_id "setup" origin t_setup in
  ignore (add_span ~parent:setup ~run_id "graphlib.gen" origin t_gen : int);
  ignore (add_span ~parent:setup ~run_id "graphlib.load" t_gen t_load : int);
  ignore (add_span ~parent:setup ~run_id "planarity.lr" t_load t_lr : int);
  ignore (add_span ~parent:setup ~run_id "warmup" t_lr t_setup : int);
  let expected =
    let w = outcome_of warm in
    {
      verdict = (if !expect_verdict = "" then w.verdict else !expect_verdict);
      digest = (if !expect_digest = "" then w.digest else !expect_digest);
    }
  in
  let attempted = ref 0 and failed = ref 0 in
  let gate what r =
    let o = outcome_of r in
    incr attempted;
    if o <> expected || (planar && o.verdict = "reject") then begin
      incr failed;
      Printf.eprintf
        "perfbench: %s: MISMATCH verdict=%s digest=%s (expected %s %s, \
         ground truth %s)\n%!"
        what o.verdict o.digest expected.verdict expected.digest
        (if planar then "planar" else "non-planar")
    end
  in
  gate "warm-up" warm;
  let runs = ref [] and traced = ref [] in
  let rep = ref 0 in
  (* Every timed run starts from a collected heap, as the CLI's single run
     does; otherwise the first run after the warm-up pays for marking the
     warm-up's garbage (measured 5.6-6.0 s against 4.5 s on grid-peel). *)
  let plain () =
    Gc.full_major ();
    let r, wall, cpu, words = plain_run cfg in
    gate (Printf.sprintf "run %d" !rep) r;
    runs :=
      Json.Obj
        [ ("wall_s", Json.Float wall); ("cpu_s", Json.Float cpu);
          ("alloc_mw", Json.Float (mwords words)) ]
      :: !runs
  in
  let traced_one () =
    Gc.full_major ();
    let r, layer =
      traced_run cfg ~run_id:(Printf.sprintf "%s:rep=%d" run_id !rep)
    in
    gate (Printf.sprintf "traced run %d" !rep) r;
    traced := layer :: !traced
  in
  let deadline = origin +. !seconds and last_rep = ref 0.0 in
  while !rep = 0 || now () +. !last_rep <= deadline do
    incr rep;
    let t = now () in
    if !trace = "" then plain ()
    else if !rep mod 2 = 1 then (plain (); traced_one ())
    else (traced_one (); plain ());
    last_rep := now () -. t
  done;
  if !trace <> "" then write_spans !trace ~origin ~label:!label;
  let o = outcome_of warm in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("ocaml", Json.String Sys.ocaml_version);
            ("n", Json.Int (Graph.n g)); ("m", Json.Int (Graph.m g));
            ("planar", Json.Bool planar);
            ("verdict", Json.String o.verdict); ("digest", Json.String o.digest);
            ("rounds", Json.Int warm.rounds); ("messages", Json.Int warm.messages);
            ("gen_s", Json.Float (t_gen -. origin));
            ("load_s", Json.Float (t_load -. t_gen));
            ("lr_s", Json.Float (t_lr -. t_load));
            ("warmup_s", Json.Float (t_setup -. t_lr));
            ("setup_s", Json.Float (t_setup -. origin));
            ("attempted", Json.Int !attempted); ("failed", Json.Int !failed);
            ("runs", Json.List (List.rev !runs));
            ("traced", Json.List (List.rev !traced));
            ("peak_rss_mb", Json.Float peak_rss);
            ("top_heap_mb", Json.Float top_heap_mb) ]))
