(* planarmon — run-level monitor and regression gate.

     planarmon snapshot --family grid --n 512 --openmetrics - --json m.json
     planarmon compare BENCH_planarity.json /tmp/bench-new.json
     planarmon watch --family grid --n 512 --iters 10
     planarmon attach /tmp/hb.json --stall-after 30
     planarmon history runs.jsonl

   `snapshot` runs a tester workload with the Obs.Metrics registry
   enabled and emits the OpenMetrics text exposition plus the
   `metrics/v1` JSON document.  `compare` diffs two reports emitted by
   this repo (`bench.planarity/v1`, `metrics/v1` or
   `planartest.stats/v*`): simulated fields must match exactly,
   wall-clock fields are gated by a threshold, and regressions exit 1
   with a table of offenders.  `watch` loops a workload, checks the
   simulated accounting never drifts across iterations, aggregates the
   histograms and flags wall-clock outliers.  `attach` tails a live
   run's heartbeat/v1 status file (progress, rounds/s, phase-aware ETA)
   with a --stall-after liveness gate.  `history` summarizes a
   runs.ledger/v1 provenance ledger and flags determinism drift across
   runs of the same fingerprint.

   Exit codes: 0 ok (attach: run finished), 1 regression / mismatch /
   outlier / stalled / drift, 2 usage or IO error. *)

open Cmdliner
open Graphlib
module PT = Tester.Planarity_tester
module Json = Report.Json
module M = Obs.Metrics

let log_level_arg =
  let doc = "Log verbosity: error, warn, info or debug." in
  Arg.(value & opt string "info" & info [ "log-level" ] ~docv:"LEVEL" ~doc)

let log_json_arg =
  let doc =
    "Also emit every log record as one JSON object per line to $(docv) \
     ('-' for stderr)."
  in
  Arg.(value & opt (some string) None & info [ "log-json" ] ~docv:"PATH" ~doc)

let setup_logs level json =
  (match Obs.Log.level_of_string level with
  | Ok l -> Obs.Log.set_level l
  | Error msg ->
      Printf.eprintf "planarmon: %s\n" msg;
      exit 2);
  match json with
  | None -> ()
  | Some path -> (
      match Obs.Log.set_json path with
      | Ok () -> at_exit Obs.Log.close_json
      | Error msg ->
          Printf.eprintf "planarmon: cannot open --log-json %s: %s\n" path msg;
          exit 2)

(* ---------- workload ---------------------------------------------------- *)

(* Kept in sync with `planartest gen`. *)
let make_graph ~family ~n ~param ~seed =
  let rng = Random.State.make [| seed |] in
  match family with
  | "grid" ->
      let rows, cols = Generators.grid_dims n in
      Generators.grid rows cols
  | "torus" ->
      let rows, cols = Generators.grid_dims ~min_side:3 n in
      Generators.torus rows cols
  | "cycle" -> Generators.cycle n
  | "path" -> Generators.path n
  | "tree" -> Generators.random_tree rng n
  | "apollonian" -> Generators.apollonian rng n
  | "planar" ->
      let mmax = (3 * n) - 6 in
      Generators.random_planar rng ~n
        ~m:(max (n - 1) (int_of_float (param *. float_of_int mmax)))
  | "far" -> Generators.far_from_planar rng ~n ~eps:param
  | "gnp" -> Generators.gnp rng n (param /. float_of_int n)
  | "complete" -> Generators.complete n
  | "kbipartite" -> Generators.complete_bipartite (n / 2) (n - (n / 2))
  | "k5necklace" -> Generators.k5_necklace (max 1 (n / 5))
  | f -> failwith ("unknown family: " ^ f)

type workload = {
  family : string;
  n : int;
  param : float;
  eps : float;
  seed : int;
  domains : int;
  fast_forward : bool;
}

let family_arg =
  let doc =
    "Workload graph family: grid, torus, cycle, path, tree, apollonian, \
     planar, far, gnp, complete, kbipartite, k5necklace."
  in
  Arg.(value & opt string "grid" & info [ "family" ] ~doc)

let n_arg = Arg.(value & opt int 512 & info [ "n" ] ~doc:"Number of vertices.")

let param_arg =
  Arg.(
    value & opt float 0.2
    & info [ "param" ]
        ~doc:
          "Family parameter: eps for 'far', p*n for 'gnp', edge fraction for \
           'planar'.")

let eps_arg =
  Arg.(value & opt float 0.2 & info [ "eps" ] ~doc:"Tester epsilon.")

let seed_arg = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Random seed.")

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"D"
        ~doc:
          "Shard engine node stepping across $(docv) OCaml domains.  Every \
           stable metric is identical for any value.")

let no_ff_arg =
  Arg.(
    value & flag
    & info [ "no-fast-forward" ]
        ~doc:"Disable the engine's quiescent-round fast-forward.")

let workload_term =
  let mk family n param eps seed domains no_ff =
    { family; n; param; eps; seed; domains; fast_forward = not no_ff }
  in
  Term.(
    const mk $ family_arg $ n_arg $ param_arg $ eps_arg $ seed_arg
    $ domains_arg $ no_ff_arg)

(* Host-side gauges sampled once per snapshot/watch iteration.  Never
   stable: wall clock and GC state are scheduling artifacts. *)
let m_workload_wall =
  M.gauge ~stable:false ~help:"Wall clock of the last workload run, seconds"
    "host_workload_wall_s"

let m_gc_minor_words =
  M.gauge ~stable:false ~help:"Gc.quick_stat minor_words"
    "host_gc_minor_words"

let m_gc_major_collections =
  M.gauge ~stable:false ~help:"Gc.quick_stat major_collections"
    "host_gc_major_collections"

let m_gc_heap_words =
  M.gauge ~stable:false ~help:"Gc.quick_stat heap_words" "host_gc_heap_words"

let sample_host_gauges () =
  let s = Gc.quick_stat () in
  M.set m_gc_minor_words s.Gc.minor_words;
  M.set m_gc_major_collections (float_of_int s.Gc.major_collections);
  M.set m_gc_heap_words (float_of_int s.Gc.heap_words)

(* Runs the tester once with metrics enabled; returns the report and the
   wall-clock seconds spent.  Every run is traced into a large ring (so
   the causal analysis is never lossy at monitor scales) and fed to the
   critical-path analyzer: critpath_rounds / critpath_slack_rounds are
   ~stable, so the monitor baseline locks them alongside the engine's
   own counters. *)
let run_workload w =
  let g =
    try make_graph ~family:w.family ~n:w.n ~param:w.param ~seed:w.seed
    with Invalid_argument msg | Failure msg ->
      Obs.Log.errorf "planarmon: %s" msg;
      exit 2
  in
  Obs.Log.set_context
    ~run_id:
      (Printf.sprintf "planarmon:%s:n=%d:seed=%d" w.family w.n w.seed)
    ();
  (* The ring must hold the whole run: critpath metrics are only stable
     when no causal parent was evicted.  The default workload records
     ~1.9M events fast-forwarded; without fast-forward every parked
     node's per-round spin resume lands in the ring too (~11.2M), so
     the diagnostic ff-off mode pays for the bigger ring rather than
     lose the stable families. *)
  let capacity = if w.fast_forward then 1 lsl 21 else 1 lsl 24 in
  let trace =
    Congest.Trace.create
      ~config:{ Congest.Trace.default_config with capacity }
      (Congest.Telemetry.create ~series:false ())
  in
  let t0 = Unix.gettimeofday () in
  let r =
    PT.run ~trace ~domains:w.domains ~fast_forward:w.fast_forward ~seed:w.seed
      g ~eps:w.eps
  in
  let wall = Unix.gettimeofday () -. t0 in
  Congest.Trace.finish trace;
  let view = Report.Ctrace.of_trace trace in
  (* A lossy ring's surviving suffix depends on the host event mix
     (Shard events vary with --domains), so a path computed from it is
     not machine-independent: skip the stable families rather than
     poison the baseline. *)
  if Report.Critpath_report.lossy_view view then
    Obs.Log.warn
      "critpath: monitor trace ring overflowed; skipping critpath metrics \
       (raise the workload size only alongside a bigger ring)"
  else Obs.Critpath.record_metrics (Report.Critpath_report.analyze view);
  M.set m_workload_wall wall;
  sample_host_gauges ();
  (r, wall)

(* ---------- snapshot ---------------------------------------------------- *)

let write_text path s =
  if path = "-" then print_string s
  else begin
    (* Atomic tmp+rename via the shared lib/report helper: a concurrent
       scraper tailing the exposition file never reads a torn document
       (same path the run ledger and checkpoints publish through). *)
    Report.write_atomic path s;
    Obs.Log.infof "wrote %s" path
  end

let snapshot_cmd =
  let openmetrics_arg =
    Arg.(
      value & opt string "-"
      & info [ "openmetrics" ] ~docv:"PATH"
          ~doc:
            "Write the OpenMetrics text exposition to $(docv) ('-' for \
             stdout).")
  in
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:
            "Also write the metrics/v1 JSON snapshot to $(docv) ('-' for \
             stdout; the OpenMetrics text then defaults to stderr-less \
             silence unless --openmetrics names a file).")
  in
  let runs_arg =
    Arg.(
      value & opt int 1
      & info [ "runs" ] ~docv:"R" ~doc:"Run the workload $(docv) times.")
  in
  let stable_only_arg =
    Arg.(
      value & flag
      & info [ "stable-only" ]
          ~doc:
            "Emit only simulated-deterministic metric families (drop wall \
             clock and GC).  This projection is byte-identical across \
             --domains and fast-forward.")
  in
  let run w runs openmetrics json stable_only log_level log_json =
    setup_logs log_level log_json;
    if runs < 1 then begin
      Obs.Log.error "planarmon snapshot: --runs must be >= 1";
      exit 2
    end;
    M.set_enabled true;
    M.reset ();
    for _ = 1 to runs do
      ignore (run_workload w)
    done;
    let stable_only = if stable_only then Some true else None in
    (match json with
    | Some out -> (
        try Report.write out (Report.metrics_json ?stable_only ())
        with Sys_error msg ->
          Obs.Log.errorf "planarmon snapshot: cannot write %s: %s" out msg;
          exit 2)
    | None -> ());
    (* With --json - on stdout, suppress the default '-' exposition so
       stdout stays a single parseable document. *)
    let om_suppressed = json = Some "-" && openmetrics = "-" in
    if not om_suppressed then (
      try write_text openmetrics (M.expose ?stable_only ())
      with Sys_error msg ->
        Obs.Log.errorf "planarmon snapshot: cannot write %s: %s" openmetrics
          msg;
        exit 2)
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:"Run a tester workload and emit OpenMetrics + metrics/v1 JSON")
    Term.(
      const run $ workload_term $ runs_arg $ openmetrics_arg $ json_arg
      $ stable_only_arg $ log_level_arg $ log_json_arg)

(* ---------- compare ----------------------------------------------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

type cmp = {
  mutable det : (string * string * string) list;  (* path, old, new *)
  mutable wall : (string * float * float) list;   (* path, old, new *)
  mutable n_det : int;   (* deterministic leaves compared *)
  mutable n_wall : int;  (* wall leaves gated *)
}

let num_of = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let leaf_str j = Json.to_string j

(* Structural walk under {!Report.field_class}.  [key] is the member
   name the value sits under (inherited through lists); [skip] is true
   under a Host or Config member, where only Clock leaves are still
   looked at (gated). *)
let rec walk c ~skip ~key path a b =
  match (a, b) with
  | Json.Obj ma, Json.Obj mb ->
      let ka = List.map fst ma and kb = List.map fst mb in
      if List.sort compare ka <> List.sort compare kb then begin
        c.det <-
          ( path,
            "keys {" ^ String.concat "," ka ^ "}",
            "keys {" ^ String.concat "," kb ^ "}" )
          :: c.det;
        c.n_det <- c.n_det + 1
      end
      else
        List.iter
          (fun (k, va) ->
            let skip =
              skip
              ||
              match Report.field_class k with
              | Report.Host | Report.Config -> true
              | Report.Simulated | Report.Clock -> false
            in
            walk c ~skip ~key:k (path ^ "." ^ k) va (List.assoc k mb))
          ma
  | Json.List la, Json.List lb ->
      if List.length la <> List.length lb then begin
        c.det <-
          ( path,
            Printf.sprintf "%d elements" (List.length la),
            Printf.sprintf "%d elements" (List.length lb) )
          :: c.det;
        c.n_det <- c.n_det + 1
      end
      else
        List.iteri
          (fun i (va, vb) ->
            walk c ~skip ~key (Printf.sprintf "%s[%d]" path i) va vb)
          (List.combine la lb)
  | _ ->
      if Report.field_class key = Report.Clock then begin
        match (num_of a, num_of b) with
        | Some x, Some y ->
            c.n_wall <- c.n_wall + 1;
            c.wall <- (path, x, y) :: c.wall
        | _ ->
            if a <> b then c.det <- (path, leaf_str a, leaf_str b) :: c.det;
            c.n_det <- c.n_det + 1
      end
      else if skip then ()
      else begin
        c.n_det <- c.n_det + 1;
        if a <> b then c.det <- (path, leaf_str a, leaf_str b) :: c.det
      end

(* metrics/v1: stable families must be structurally identical; families
   whose name classifies as Clock gate series-by-series (matched on
   labels, series present on one side only are host artifacts and
   skipped); everything else host-side is ignored. *)
let compare_metrics c old_j new_j =
  let fams j =
    match j with
    | Json.Obj members -> (
        match List.assoc_opt "metrics" members with
        | Some (Json.List l) ->
            List.filter_map
              (fun f ->
                match f with
                | Json.Obj fm -> (
                    match
                      (List.assoc_opt "name" fm, List.assoc_opt "stable" fm)
                    with
                    | Some (Json.String name), Some (Json.Bool stable) ->
                        Some (name, (stable, f))
                    | _ -> None)
                | _ -> None)
              l
        | _ -> [])
    | _ -> []
  in
  let fa = fams old_j and fb = fams new_j in
  let stable_names side =
    List.filter_map (fun (n, (s, _)) -> if s then Some n else None) side
  in
  let sa = stable_names fa and sb = stable_names fb in
  List.iter
    (fun n ->
      if not (List.mem n sb) then begin
        c.det <- ("metrics." ^ n, "present", "missing") :: c.det;
        c.n_det <- c.n_det + 1
      end)
    sa;
  List.iter
    (fun n ->
      if not (List.mem n sa) then begin
        c.det <- ("metrics." ^ n, "missing", "present") :: c.det;
        c.n_det <- c.n_det + 1
      end)
    sb;
  List.iter
    (fun (name, (stable, f_old)) ->
      match List.assoc_opt name fb with
      | None -> ()
      | Some (_, f_new) ->
          if stable then
            walk c ~skip:false ~key:name ("metrics." ^ name) f_old f_new
          else if Report.field_class name = Report.Clock then begin
            let series f =
              match f with
              | Json.Obj fm -> (
                  match List.assoc_opt "series" fm with
                  | Some (Json.List l) ->
                      List.filter_map
                        (fun s ->
                          match s with
                          | Json.Obj sm -> (
                              match
                                ( List.assoc_opt "labels" sm,
                                  List.assoc_opt "value" sm )
                              with
                              | Some labels, Some v -> (
                                  match num_of v with
                                  | Some x -> Some (Json.to_string labels, x)
                                  | None -> None)
                              | _ -> None)
                          | _ -> None)
                        l
                  | _ -> [])
              | _ -> []
            in
            List.iter
              (fun (labels, x) ->
                match List.assoc_opt labels (series f_new) with
                | Some y ->
                    c.n_wall <- c.n_wall + 1;
                    c.wall <-
                      (Printf.sprintf "metrics.%s%s" name labels, x, y)
                      :: c.wall
                | None -> ())
              (series f_old)
          end)
    fa

let compare_cmd =
  let old_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OLD" ~doc:"Baseline report.")
  in
  let new_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW" ~doc:"Candidate report.")
  in
  let threshold_arg =
    Arg.(
      value & opt float 25.0
      & info [ "wall-threshold" ] ~docv:"PCT"
          ~doc:
            "Flag a wall-clock field as a regression when NEW exceeds OLD \
             by more than $(docv) percent (and by a small absolute floor, \
             to ignore sub-10ms noise).")
  in
  let no_wall_arg =
    Arg.(
      value & flag
      & info [ "no-wall" ]
          ~doc:
            "Skip wall-clock gating entirely (compare only deterministic \
             fields).  Use when OLD and NEW come from different machines.")
  in
  let run old_path new_path threshold no_wall log_level log_json =
    setup_logs log_level log_json;
    let load path =
      match Report.Json_parse.of_file path with
      | Ok j -> j
      | Error msg ->
          Obs.Log.errorf "planarmon compare: %s" msg;
          exit 2
    in
    let old_j = load old_path and new_j = load new_path in
    let tag path j =
      match Report.check_schema j with
      | Ok t -> t
      | Error msg ->
          Obs.Log.errorf "planarmon compare: %s: %s" path msg;
          exit 2
    in
    let ta = tag old_path old_j and tb = tag new_path new_j in
    let c = { det = []; wall = []; n_det = 0; n_wall = 0 } in
    if ta <> tb then begin
      c.det <- ("schema", ta, tb) :: c.det;
      c.n_det <- c.n_det + 1
    end
    else if ta = Report.metrics_schema then compare_metrics c old_j new_j
    else walk c ~skip:false ~key:"" "$" old_j new_j;
    let det = List.rev c.det in
    let floor_for path =
      (* congest_run_wall_us counters are microseconds; everything else
         wall-like in this repo is seconds or ns/run. *)
      if contains path "_us" then 10_000.0
      else if contains path "ns_per_run" then 1000.0
      else 0.01
    in
    let wall_offenders =
      if no_wall then []
      else
        List.rev c.wall
        |> List.filter (fun (path, x, y) ->
               x > 0.0
               && y > x *. (1.0 +. (threshold /. 100.0))
               && y -. x > floor_for path)
    in
    if det <> [] then begin
      Printf.printf "DETERMINISTIC MISMATCH (%d field(s)):\n"
        (List.length det);
      let shown = ref 0 in
      List.iter
        (fun (path, o, n) ->
          incr shown;
          if !shown <= 50 then
            Printf.printf "  %-60s old=%s new=%s\n" path o n)
        det;
      if !shown > 50 then Printf.printf "  ... and %d more\n" (!shown - 50)
    end;
    if wall_offenders <> [] then begin
      Printf.printf "WALL-CLOCK REGRESSION (> %g%%):\n" threshold;
      List.iter
        (fun (path, x, y) ->
          Printf.printf "  %-60s old=%.6g new=%.6g (+%.1f%%)\n" path x y
            ((y -. x) /. x *. 100.0))
        wall_offenders
    end;
    if det = [] && wall_offenders = [] then begin
      Printf.printf
        "OK: %d deterministic field(s) identical, %d wall-clock field(s) %s\n"
        c.n_det c.n_wall
        (if no_wall then "ignored (--no-wall)"
         else Printf.sprintf "within %g%%" threshold);
      exit 0
    end
    else exit 1
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Diff two reports: deterministic fields exactly, wall clock by \
          threshold")
    Term.(
      const run $ old_arg $ new_arg $ threshold_arg $ no_wall_arg
      $ log_level_arg $ log_json_arg)

(* ---------- watch ------------------------------------------------------- *)

let watch_cmd =
  let iters_arg =
    Arg.(
      value & opt int 5
      & info [ "iters" ] ~docv:"N" ~doc:"Number of workload iterations.")
  in
  let outlier_arg =
    Arg.(
      value & opt float 2.0
      & info [ "outlier-factor" ] ~docv:"X"
          ~doc:
            "Flag an iteration as an outlier when its wall clock exceeds \
             $(docv) times the median.")
  in
  let openmetrics_arg =
    Arg.(
      value & opt (some string) None
      & info [ "openmetrics" ] ~docv:"PATH"
          ~doc:
            "After the loop, write the aggregated OpenMetrics exposition \
             (histograms accumulated over all iterations) to $(docv).")
  in
  let run w iters outlier_factor openmetrics log_level log_json =
    setup_logs log_level log_json;
    if iters < 1 then begin
      Obs.Log.error "planarmon watch: --iters must be >= 1";
      exit 2
    end;
    M.set_enabled true;
    M.reset ();
    let sims = Array.make iters (0, 0, 0, "") in
    let walls = Array.make iters 0.0 in
    for i = 0 to iters - 1 do
      let r, wall = run_workload w in
      let verdict =
        match r.PT.verdict with
        | PT.Accept -> "accept"
        | PT.Reject _ -> "reject"
        | PT.Degraded _ -> "degraded"
      in
      sims.(i) <- (r.PT.rounds, r.PT.messages, r.PT.total_bits, verdict);
      walls.(i) <- wall
    done;
    let sorted = Array.copy walls in
    Array.sort compare sorted;
    let median = sorted.(iters / 2) in
    let drift = ref false in
    Printf.printf "%-5s %-10s %-12s %-14s %-9s %-10s %s\n" "iter" "rounds"
      "messages" "bits" "verdict" "wall_s" "flags";
    Array.iteri
      (fun i (rounds, messages, bits, verdict) ->
        let flags = ref [] in
        if sims.(i) <> sims.(0) then begin
          drift := true;
          flags := "SIM-DRIFT" :: !flags
        end;
        if median > 0.0 && walls.(i) > outlier_factor *. median then
          flags := "WALL-OUTLIER" :: !flags;
        Printf.printf "%-5d %-10d %-12d %-14d %-9s %-10.6f %s\n" i rounds
          messages bits verdict
          walls.(i)
          (String.concat "," !flags))
      sims;
    Printf.printf "median wall_s: %.6f\n" median;
    (match openmetrics with
    | Some path -> (
        try write_text path (M.expose ())
        with Sys_error msg ->
          Obs.Log.errorf "planarmon watch: cannot write %s: %s" path msg;
          exit 2)
    | None -> ());
    if !drift then begin
      Obs.Log.error
        "planarmon watch: simulated accounting drifted across iterations \
         (same seed must give identical rounds/messages/bits)";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Loop a workload, aggregate histograms, flag wall outliers and \
          simulated drift")
    Term.(
      const run $ workload_term $ iters_arg $ outlier_arg $ openmetrics_arg
      $ log_level_arg $ log_json_arg)

(* ---------- attach ------------------------------------------------------ *)

(* The fields `attach` consumes from a heartbeat/v1 document.  The
   writer publishes atomically (tmp+rename), so every successful read
   sees a complete document; a parse failure means the file is not a
   heartbeat at all. *)
type hb = {
  hb_seq : int;
  hb_state : string;
  hb_verdict : string option;
  hb_run_id : string;
  hb_property : string;
  hb_phase : string;
  hb_done : int;
  hb_total : int;
  hb_rounds : int;
  hb_messages : int;
  hb_wall : float;
}

let parse_heartbeat s =
  match Report.Json_parse.of_string s with
  | Error msg -> Error msg
  | Ok (Json.Obj m) -> (
      let str k =
        match List.assoc_opt k m with Some (Json.String s) -> Some s | _ -> None
      in
      let int k =
        match List.assoc_opt k m with Some (Json.Int i) -> Some i | _ -> None
      in
      let num k =
        match List.assoc_opt k m with
        | Some (Json.Float f) -> Some f
        | Some (Json.Int i) -> Some (float_of_int i)
        | _ -> None
      in
      match str "schema" with
      | Some sch when sch = Report.heartbeat_schema -> (
          match
            (str "state", int "seq", int "phases_done", int "phases_total",
             int "rounds", int "messages", num "wall_s")
          with
          | ( Some state, Some seq, Some done_, Some total, Some rounds,
              Some messages, Some wall ) ->
              Ok
                {
                  hb_seq = seq;
                  hb_state = state;
                  hb_verdict = str "verdict";
                  hb_run_id = Option.value (str "run_id") ~default:"?";
                  hb_property = Option.value (str "property") ~default:"?";
                  hb_phase = Option.value (str "phase") ~default:"";
                  hb_done = done_;
                  hb_total = total;
                  hb_rounds = rounds;
                  hb_messages = messages;
                  hb_wall = wall;
                }
          | _ -> Error "missing heartbeat member")
      | Some sch -> Error (Printf.sprintf "unexpected schema %S" sch)
      | None -> Error "no \"schema\" member")
  | Ok _ -> Error "not a JSON object"

let attach_cmd =
  let file_arg =
    let doc = "Heartbeat status file published by a live run." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let stall_arg =
    let doc =
      "Declare the run dead and exit 1 when the heartbeat sequence number \
       does not advance for $(docv) seconds.  0 (the default) follows \
       forever."
    in
    Arg.(value & opt float 0.0 & info [ "stall-after" ] ~docv:"SECS" ~doc)
  in
  let interval_arg =
    let doc = "Poll interval in seconds." in
    Arg.(value & opt float 0.5 & info [ "interval" ] ~docv:"SECS" ~doc)
  in
  let run file stall_after interval log_level log_json =
    setup_logs log_level log_json;
    if stall_after < 0.0 then begin
      Obs.Log.error "planarmon attach: --stall-after must be >= 0";
      exit 2
    end;
    if interval <= 0.0 then begin
      Obs.Log.error "planarmon attach: --interval must be > 0";
      exit 2
    end;
    let read_file () =
      try Some (In_channel.with_open_bin file In_channel.input_all)
      with Sys_error _ -> None
    in
    let tty = Unix.isatty Unix.stdout in
    let print_done hb =
      if tty then print_string "\r";
      Printf.printf "[%s] done: verdict=%s phases=%d/%d rounds=%d messages=%d \
                     wall=%.3fs\n"
        hb.hb_run_id
        (Option.value hb.hb_verdict ~default:"?")
        hb.hb_done hb.hb_total hb.hb_rounds hb.hb_messages hb.hb_wall;
      exit 0
    in
    (* Rounds/s over a sliding window of the writer's own (wall_s,
       rounds) stamps — immune to our polling jitter.  ETA is
       phase-based: phases are the only monotone progress measure whose
       total is known up front (the round budget is data-dependent). *)
    let window = Queue.create () in
    let progress hb =
      Queue.push (hb.hb_wall, hb.hb_rounds) window;
      while Queue.length window > 32 do
        ignore (Queue.pop window)
      done;
      let rps =
        if Queue.length window >= 2 then begin
          let w0, r0 = Queue.peek window in
          let w1, r1 =
            Queue.fold (fun _ x -> x) (Queue.peek window) window
          in
          if w1 > w0 then
            Printf.sprintf " %.0f rounds/s" (float_of_int (r1 - r0) /. (w1 -. w0))
          else ""
        end
        else ""
      in
      let eta =
        if hb.hb_done > 0 && hb.hb_total > hb.hb_done then
          Printf.sprintf " eta~%.0fs"
            (hb.hb_wall
            *. float_of_int (hb.hb_total - hb.hb_done)
            /. float_of_int hb.hb_done)
        else ""
      in
      let pct =
        if hb.hb_total > 0 then 100 * hb.hb_done / hb.hb_total else 0
      in
      let line =
        Printf.sprintf "[%s] %3d%% %s phases=%d/%d rounds=%d messages=%d \
                        wall=%.1fs%s%s"
          hb.hb_run_id pct
          (if hb.hb_phase = "" then hb.hb_property else hb.hb_phase)
          hb.hb_done hb.hb_total hb.hb_rounds hb.hb_messages hb.hb_wall rps eta
      in
      if tty then Printf.printf "\r%s   %!" line
      else begin
        print_endline line;
        flush stdout
      end
    in
    (* First read gates the input contract: missing or unparseable at
       attach time is a usage error (2), not a stall (1). *)
    (match read_file () with
    | None ->
        Obs.Log.errorf "planarmon attach: %s: cannot read" file;
        exit 2
    | Some s -> (
        match parse_heartbeat s with
        | Error msg ->
            Obs.Log.errorf "planarmon attach: %s: %s" file msg;
            exit 2
        | Ok hb ->
            if hb.hb_state = "done" then print_done hb;
            progress hb;
            let last_seq = ref hb.hb_seq in
            let last_advance = ref (Unix.gettimeofday ()) in
            let rec loop () =
              Unix.sleepf interval;
              (match read_file () with
              | None ->
                  (* The file existed when we attached; its writer (or a
                     cleanup) removed it without publishing "done". *)
                  if tty then print_newline ();
                  Obs.Log.errorf
                    "planarmon attach: %s disappeared before completion" file;
                  exit 1
              | Some s -> (
                  match parse_heartbeat s with
                  | Error msg ->
                      if tty then print_newline ();
                      Obs.Log.errorf "planarmon attach: %s: %s" file msg;
                      exit 2
                  | Ok hb ->
                      if hb.hb_state = "done" then print_done hb;
                      if hb.hb_seq <> !last_seq then begin
                        last_seq := hb.hb_seq;
                        last_advance := Unix.gettimeofday ();
                        progress hb
                      end
                      else if
                        stall_after > 0.0
                        && Unix.gettimeofday () -. !last_advance > stall_after
                      then begin
                        if tty then print_newline ();
                        Obs.Log.errorf
                          "planarmon attach: no heartbeat from [%s] for %.1fs \
                           (last seq %d, phase %d/%d) — declaring the run dead"
                          hb.hb_run_id stall_after hb.hb_seq hb.hb_done
                          hb.hb_total;
                        exit 1
                      end));
              loop ()
            in
            loop ()))
  in
  Cmd.v
    (Cmd.info "attach"
       ~doc:
         "Tail a live run's heartbeat file: progress, rounds/s and \
          phase-aware ETA.  Exits 0 when the run finishes, 1 when the \
          heartbeat stalls past --stall-after or the file disappears, 2 on \
          missing or malformed input.")
    Term.(
      const run $ file_arg $ stall_arg $ interval_arg $ log_level_arg
      $ log_json_arg)

(* ---------- history ----------------------------------------------------- *)

let history_cmd =
  let file_arg =
    let doc = "Run ledger (runs.ledger/v1 JSONL) written via --ledger." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"LEDGER" ~doc)
  in
  let property_arg =
    let doc = "Only show runs of this property." in
    Arg.(
      value
      & opt (some string) None
      & info [ "property" ] ~docv:"NAME" ~doc)
  in
  let run file property_filter log_level log_json =
    setup_logs log_level log_json;
    if not (Sys.file_exists file) then begin
      Obs.Log.errorf "planarmon history: %s: no such file" file;
      exit 2
    end;
    let records, skipped = Report.Ledger.load file in
    if skipped > 0 then
      Obs.Log.warnf "planarmon history: skipped %d unparseable line(s)" skipped;
    let records =
      match property_filter with
      | None -> records
      | Some p ->
          List.filter (fun r -> r.Report.Ledger.property = p) records
    in
    if records = [] then begin
      print_endline "no ledger records";
      exit 0
    end;
    (* Group by fingerprint, preserving first-seen order.  Every run of
       a fingerprint must agree on the simulated outcome — the digest
       already folds verdict/rounds/messages/bits into one value, so a
       digest mismatch IS determinism drift. *)
    let groups : (string, Report.Ledger.record list ref) Hashtbl.t =
      Hashtbl.create 16
    in
    let order = ref [] in
    List.iter
      (fun r ->
        let fp = r.Report.Ledger.fingerprint in
        match Hashtbl.find_opt groups fp with
        | Some l -> l := r :: !l
        | None ->
            Hashtbl.add groups fp (ref [ r ]);
            order := fp :: !order)
      records;
    let drift = ref false in
    Printf.printf "%-12s %-5s %-9s %-10s %-12s %-10s %-8s %s\n" "property"
      "runs" "verdict" "rounds" "messages" "wall_med" "trend" "fingerprint";
    List.iter
      (fun fp ->
        let rows = List.rev !(Hashtbl.find groups fp) in
        let r0 = List.hd rows in
        let group_drift =
          List.exists
            (fun r ->
              r.Report.Ledger.digest <> r0.Report.Ledger.digest
              || r.Report.Ledger.verdict <> r0.Report.Ledger.verdict)
            rows
        in
        if group_drift then drift := true;
        let walls =
          List.map (fun r -> r.Report.Ledger.wall_s) rows
          |> List.sort compare |> Array.of_list
        in
        let median = walls.(Array.length walls / 2) in
        let first_wall = (List.hd rows).Report.Ledger.wall_s in
        let last_wall =
          (List.nth rows (List.length rows - 1)).Report.Ledger.wall_s
        in
        let trend =
          if List.length rows < 2 || first_wall <= 0.0 then "-"
          else
            Printf.sprintf "%+.0f%%"
              (100.0 *. (last_wall -. first_wall) /. first_wall)
        in
        Printf.printf "%-12s %-5d %-9s %-10d %-12d %-10.4f %-8s %s%s\n"
          r0.Report.Ledger.property (List.length rows)
          r0.Report.Ledger.verdict r0.Report.Ledger.rounds
          r0.Report.Ledger.messages median trend fp
          (if group_drift then "  DRIFT" else "");
        if group_drift then
          List.iteri
            (fun i r ->
              Printf.printf
                "  run %d: tool=%s verdict=%s rounds=%d messages=%d bits=%d \
                 digest=%s\n"
                i r.Report.Ledger.tool r.Report.Ledger.verdict
                r.Report.Ledger.rounds r.Report.Ledger.messages
                r.Report.Ledger.total_bits r.Report.Ledger.digest)
            rows)
      (List.rev !order);
    if !drift then begin
      Obs.Log.error
        "planarmon history: determinism drift — runs with the same \
         fingerprint disagree on the simulated outcome";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "history"
       ~doc:
         "Summarize a provenance run ledger: runs per fingerprint, wall-time \
          trend, and determinism drift (same fingerprint, different \
          simulated outcome — exit 1).")
    Term.(const run $ file_arg $ property_arg $ log_level_arg $ log_json_arg)

(* ---------- entry ------------------------------------------------------- *)

let () =
  let doc = "run-level metrics monitor and bench regression gate" in
  (* [n] is a single-character option, which cmdliner only accepts as
     [-n]; keep the documented [--n N] spelling working too (same
     rewrite as planartest). *)
  let argv = Array.map (fun a -> if a = "--n" then "-n" else a) Sys.argv in
  let code =
    try
      Cmd.eval ~argv
        (Cmd.group
           (Cmd.info "planarmon" ~doc)
           [ snapshot_cmd; compare_cmd; watch_cmd; attach_cmd; history_cmd ])
    with
    | Sys_error msg | Failure msg ->
        Printf.eprintf "planarmon: %s\n" msg;
        2
  in
  (* cmdliner's cli_error is 124; this tool's contract is 2 for usage
     errors (same sweep as planartrace). *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
