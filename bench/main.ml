(* Benchmark / experiment harness.

   The paper (PODC 2018) has no tables or figures — it is a theory paper —
   so each experiment below regenerates the quantitative content of one
   theorem or claim (see DESIGN.md's per-experiment index and EXPERIMENTS.md
   for paper-vs-measured).

   Usage:  bench [--quick|-q] [--jobs N] [--domains D] [--no-timings]
                 [--mode fiber|compiled] [--json PATH]
                 [--faults SPEC] [--trace PATH]

   Independent (family, n, eps, seed) points inside each experiment are
   fanned across [--jobs] domains (default: the recommended domain count);
   results are reassembled in input order, so the report is identical to a
   serial run.  [--domains D] additionally shards node stepping *inside*
   each tester/partition run across D engine domains — every statistic is
   identical for any D, only wall-clock changes.  [--mode] selects the
   executor for the lockstep Stage I kernels (default fiber; compiled
   runs them as fiber-free array passes — every statistic and
   the whole report are byte-identical across modes, see
   Congest.Compiled).  [--no-timings] skips the
   serial Bechamel micro-benchmark section and suppresses every printed
   wall-clock column (A3's ff off/on set included): the remaining output
   depends only on simulated accounting, so it is stable for CI diffing.
   [--trace PATH] records a Congest.Trace of P1's sharded tester run and
   writes it as a binary .ctrace file for the planartrace analyzer.
   [--json PATH] additionally writes every experiment's data as a
   machine-readable document (schema "bench.planarity/v1"; '-' = stdout).
   [--faults SPEC] adds one extra user-chosen fault policy row to the R1
   verdict-stability experiment (see Congest.Faults.of_spec for the SPEC
   grammar); the built-in drop-probability sweep always runs. *)

open Graphlib
module J = Report.Json

(* --- command line ---------------------------------------------------- *)

let quick = ref false
let jobs = ref (max 1 (Domain.recommended_domain_count () - 1))
let domains = ref 1
let timings = ref true
let json_path = ref None
let faults_spec = ref None
let trace_path = ref None
let only = ref None
let mode = ref Congest.Compiled.Fiber
let log_level = ref "info"
let log_json = ref None
let ledger_path = ref None

(* Every experiment id `--only` accepts, in run order. *)
let known_ids =
  [ "E1"; "E2"; "E3"; "E4"; "E5"; "E6"; "E7"; "E8"; "E9"; "E10"; "E11";
    "E12"; "E13"; "E14"; "A1"; "A2"; "A3"; "P1"; "R1"; "M1"; "C1"; "T1";
    "L1"; "B" ]

let () =
  let argv = Sys.argv in
  let usage () =
    prerr_endline
      "usage: bench [--quick|-q] [--jobs N] [--domains D] [--no-timings] \
       [--mode fiber|compiled] [--json PATH] [--faults SPEC] \
       [--trace PATH] [--only IDS] [--ledger PATH] [--log-level LEVEL] \
       [--log-json PATH]";
    exit 2
  in
  let rec parse i =
    if i < Array.length argv then
      match argv.(i) with
      | "--quick" | "-q" ->
          quick := true;
          parse (i + 1)
      | "--jobs" when i + 1 < Array.length argv ->
          (match int_of_string_opt argv.(i + 1) with
          | Some n when n >= 1 -> jobs := n
          | _ -> usage ());
          parse (i + 2)
      | "--domains" when i + 1 < Array.length argv ->
          (match int_of_string_opt argv.(i + 1) with
          | Some n when n >= 1 -> domains := n
          | _ -> usage ());
          parse (i + 2)
      | "--no-timings" ->
          timings := false;
          parse (i + 1)
      | "--json" when i + 1 < Array.length argv ->
          json_path := Some argv.(i + 1);
          parse (i + 2)
      | "--trace" when i + 1 < Array.length argv ->
          trace_path := Some argv.(i + 1);
          parse (i + 2)
      | "--faults" when i + 1 < Array.length argv ->
          (match Congest.Faults.of_spec argv.(i + 1) with
          | Ok p -> faults_spec := Some p
          | Error msg ->
              Printf.eprintf "bench: --faults: %s\n" msg;
              exit 2);
          parse (i + 2)
      | "--mode" when i + 1 < Array.length argv ->
          (match Congest.Compiled.mode_of_string argv.(i + 1) with
          | Some m -> mode := m
          | None ->
              Printf.eprintf
                "bench: --mode: unknown mode %S (expected fiber or compiled)\n"
                argv.(i + 1);
              exit 2);
          parse (i + 2)
      | "--only" when i + 1 < Array.length argv ->
          let ids =
            String.split_on_char ',' argv.(i + 1)
            |> List.map String.trim
            |> List.filter (fun s -> s <> "")
            |> List.map String.uppercase_ascii
          in
          List.iter
            (fun id ->
              if not (List.mem id known_ids) then begin
                Printf.eprintf "bench: --only: unknown experiment %S (known: %s)\n"
                  id (String.concat "," known_ids);
                exit 2
              end)
            ids;
          if ids = [] then usage ();
          only := Some ids;
          parse (i + 2)
      | "--ledger" when i + 1 < Array.length argv ->
          ledger_path := Some argv.(i + 1);
          parse (i + 2)
      | "--log-level" when i + 1 < Array.length argv ->
          log_level := argv.(i + 1);
          parse (i + 2)
      | "--log-json" when i + 1 < Array.length argv ->
          log_json := Some argv.(i + 1);
          parse (i + 2)
      | _ -> usage ()
  in
  parse 1;
  (match Obs.Log.level_of_string !log_level with
  | Ok l -> Obs.Log.set_level l
  | Error msg ->
      Printf.eprintf "bench: %s\n" msg;
      exit 2);
  match !log_json with
  | None -> ()
  | Some path -> (
      match Obs.Log.set_json path with
      | Ok () -> at_exit Obs.Log.close_json
      | Error msg ->
          Printf.eprintf "bench: cannot open --log-json %s: %s\n" path msg;
          exit 2)

let bench_t0 = Unix.gettimeofday ()
let quick = !quick
let jobs = !jobs
let domains = !domains
let timings = !timings
let faults_spec = !faults_spec
let trace_path = !trace_path
let only = !only
let ledger_path = !ledger_path

(* The execution mode threaded into every tester / Stage I run below.
   The dispatcher runs the same kernels on the fiber engine when faults
   are attached, and all statistics are byte-identical across modes,
   so the whole report is mode-invariant (C1 checks that claim on the
   spot, timing both modes). *)
let mode = !mode

let want id = match only with None -> true | Some ids -> List.mem id ids

(* With --json -, stdout carries exactly the JSON document and the
   human-readable report moves to stderr (mirroring planartest
   --stats-json -). *)
let report_oc = if !json_path = Some "-" then stderr else stdout

(* --- parallel point driver ------------------------------------------- *)

(* Map [f] over [xs] using up to [jobs] domains pulling indices from a
   shared [Atomic] counter.  Results land in their input slot, so order —
   and therefore the printed report — matches a serial run.  Each point
   must be self-contained (every tester run builds its own state and
   engine pool), which all experiments below satisfy. *)
let parmap f xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  let out = Array.make n None in
  let w = max 1 (min jobs n) in
  if w = 1 then Array.iteri (fun i x -> out.(i) <- Some (f x)) arr
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          out.(i) <- Some (f arr.(i));
          loop ()
        end
      in
      loop ()
    in
    let doms = List.init (w - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join doms
  end;
  Array.to_list (Array.map Option.get out)

(* --- report helpers --------------------------------------------------- *)

let header title claim =
  Printf.fprintf report_oc "\n================================================================\n";
  Printf.fprintf report_oc "%s\n" title;
  Printf.fprintf report_oc "paper: %s\n" claim;
  Printf.fprintf report_oc "================================================================\n"

let row fmt = Printf.fprintf report_oc fmt

let log2 x = log (float_of_int (max x 2)) /. log 2.0

let sections : (string * J.t) list ref = ref []

(* [experiment id title claim data] prints the section header, stores the
   JSON section, and returns [data] for the caller to print rows from. *)
let emit id ~title ~claim data =
  header (id ^ " — " ^ title) claim;
  sections := (id, J.Obj [ ("title", J.String title); ("claim", J.String claim); ("data", data) ]) :: !sections

(* ------------------------------------------------------------------ *)

let e1_rounds_vs_n () =
  let sizes =
    if quick then [ 64; 128; 256; 512 ] else [ 64; 128; 256; 512; 1024; 2048 ]
  in
  let points =
    List.map (fun n -> ("apollonian", n)) sizes
    @ List.map (fun n -> ("grid", n)) sizes
  in
  let results =
    parmap
      (fun (family, n) ->
        let g =
          match family with
          | "apollonian" ->
              Generators.apollonian (Random.State.make [| n |]) n
          | _ ->
              let side = int_of_float (sqrt (float_of_int n)) in
              Generators.grid side side
        in
        let r = Tester.Planarity_tester.run ~domains ~mode g ~eps:0.3 ~seed:1 in
        ( family,
          Graph.n g,
          Graph.m g,
          r.Tester.Planarity_tester.rounds,
          r.Tester.Planarity_tester.nominal_rounds,
          r.Tester.Planarity_tester.fast_forwarded_rounds ))
      points
  in
  emit "E1" ~title:"tester rounds vs n (planar inputs)"
    ~claim:"Theorem 1: O(log n * poly(1/eps)) rounds"
    (J.List
       (List.map
          (fun (family, n, m, rounds, nominal, ff) ->
            J.Obj
              [
                ("family", J.String family);
                ("n", J.Int n);
                ("m", J.Int m);
                ("rounds", J.Int rounds);
                ("nominal", J.Int nominal);
                ("fast_forwarded_rounds", J.Int ff);
              ])
          results));
  row "%-12s %-6s %-7s %-9s %-10s %-9s %-11s %-14s\n" "family" "n" "m"
    "rounds" "nominal" "fast-fwd" "rounds/lg n" "nominal/lg n";
  List.iter
    (fun (family, n, m, rounds, nominal, ff) ->
      row "%-12s %-6d %-7d %-9d %-10d %-9d %-11.1f %-14.1f\n" family n m
        rounds nominal ff
        (float_of_int rounds /. log2 n)
        (float_of_int nominal /. log2 n))
    results

let e2_rounds_vs_eps () =
  let n = if quick then 256 else 512 in
  let g = Generators.apollonian (Random.State.make [| 77 |]) n in
  let epss = [ 0.5; 0.4; 0.3; 0.2; 0.15; 0.1 ] in
  let results =
    parmap
      (fun eps ->
        let r = Tester.Planarity_tester.run ~domains ~mode g ~eps ~seed:1 in
        let phases =
          match r.Tester.Planarity_tester.stage1 with
          | Some s1 -> List.length s1.Partition.Stage1.phases
          | None -> 0
        in
        ( eps,
          phases,
          r.Tester.Planarity_tester.rounds,
          r.Tester.Planarity_tester.nominal_rounds,
          Partition.Stage1.phases_for ~eps ~alpha:3 ))
      epss
  in
  emit "E2" ~title:"tester rounds vs eps (fixed n)"
    ~claim:
      "Theorem 1: poly(1/eps) dependence via t = O(log 1/eps) phases and 4^i \
       diameters"
    (J.Obj
       [
         ("n", J.Int n);
         ( "rows",
           J.List
             (List.map
                (fun (eps, phases, rounds, nominal, t_max) ->
                  J.Obj
                    [
                      ("eps", J.Float eps);
                      ("phases", J.Int phases);
                      ("rounds", J.Int rounds);
                      ("nominal", J.Int nominal);
                      ("t_max", J.Int t_max);
                    ])
                results) );
       ]);
  row "%-7s %-8s %-9s %-10s %-7s\n" "eps" "phases" "rounds" "nominal" "t_max";
  List.iter
    (fun (eps, phases, rounds, nominal, t_max) ->
      row "%-7.2f %-8d %-9d %-10d %-7d\n" eps phases rounds nominal t_max)
    results

let e3_completeness () =
  let trials = if quick then 10 else 25 in
  let families =
    [
      ("apollonian", fun rng -> Generators.apollonian rng 200);
      ("rand planar", fun rng -> Generators.random_planar rng ~n:200 ~m:420);
      ("grid 14x14", fun _ -> Generators.grid 14 14);
      ("tree", fun rng -> Generators.random_tree rng 200);
      ("cycle", fun _ -> Generators.cycle 200);
    ]
  in
  let points =
    List.concat_map
      (fun (name, gen) -> List.init trials (fun i -> (name, gen, i + 1)))
      families
  in
  let oks =
    parmap
      (fun (name, gen, seed) ->
        let g = gen (Random.State.make [| seed; 13 |]) in
        let ok =
          (not (Traversal.is_connected g))
          || Tester.Planarity_tester.accepts g ~eps:0.3 ~seed
        in
        (name, ok))
      points
  in
  let results =
    List.map
      (fun (name, _) ->
        let ok =
          List.length (List.filter (fun (f, ok) -> f = name && ok) oks)
        in
        (name, ok))
      families
  in
  emit "E3" ~title:"completeness (one-sided error)"
    ~claim:"Theorem 1: planar => every node outputs accept, always"
    (J.List
       (List.map
          (fun (name, ok) ->
            J.Obj
              [
                ("family", J.String name);
                ("trials", J.Int trials);
                ("accepted", J.Int ok);
              ])
          results));
  row "%-14s %-8s %-9s\n" "family" "trials" "accepted";
  List.iter
    (fun (name, ok) ->
      row "%-14s %-8d %-9d%s\n" name trials ok
        (if ok = trials then "  (100%)" else "  *** VIOLATION ***"))
    results

let e4_soundness () =
  let trials = if quick then 8 else 20 in
  let families =
    [
      ( "far(n=150, 0.25)",
        (fun rng -> Generators.far_from_planar rng ~n:150 ~eps:0.25),
        0.2 );
      ( "far(n=300, 0.15)",
        (fun rng -> Generators.far_from_planar rng ~n:300 ~eps:0.15),
        0.1 );
      ( "K33 x 20 necklace",
        (fun _ ->
          Generators.connected_copies (Generators.complete_bipartite 3 3) 20),
        0.05 );
      ("gnp(150, 8/n)", (fun rng -> Generators.gnp rng 150 (8.0 /. 150.0)), 0.15);
    ]
  in
  let points =
    List.concat_map
      (fun (name, gen, eps) ->
        List.init trials (fun i -> (name, gen, eps, i + 1)))
      families
  in
  let outcomes =
    parmap
      (fun (name, gen, eps, seed) ->
        let g : Graph.t = gen (Random.State.make [| seed; 29 |]) in
        let far = Planarity.Distance.eps_far_lower_bound g in
        let rejected = not (Tester.Planarity_tester.accepts g ~eps ~seed) in
        (name, far, rejected))
      points
  in
  let results =
    List.map
      (fun (name, _, eps) ->
        let mine = List.filter (fun (f, _, _) -> f = name) outcomes in
        let farness =
          List.fold_left (fun acc (_, far, _) -> min acc far) 1.0 mine
        in
        let rejected =
          List.length (List.filter (fun (_, _, r) -> r) mine)
        in
        (name, farness, eps, rejected))
      families
  in
  emit "E4" ~title:"soundness on certified eps-far inputs"
    ~claim:"Theorem 1: eps-far => some node rejects w.p. 1 - 1/poly(n)"
    (J.List
       (List.map
          (fun (name, farness, eps, rejected) ->
            J.Obj
              [
                ("family", J.String name);
                ("trials", J.Int trials);
                ("certified_far", J.Float farness);
                ("eps", J.Float eps);
                ("rejected", J.Int rejected);
              ])
          results));
  row "%-22s %-8s %-10s %-9s %-9s\n" "family" "trials" "cert. far" "eps used"
    "rejected";
  List.iter
    (fun (name, farness, eps, rejected) ->
      row "%-22s %-8d %-10.3f %-9.2f %d/%d\n" name trials farness eps rejected
        trials)
    results

let e5_weight_decay () =
  let n = if quick then 300 else 800 in
  let g = Generators.apollonian (Random.State.make [| 5 |]) n in
  let r = Partition.Stage1.run ~stop_when_met:false ~domains ~mode g ~eps:0.35 in
  let live, idle =
    List.partition
      (fun (p : Partition.Stage1.phase_trace) ->
        p.Partition.Stage1.cut_before > 0)
      r.Partition.Stage1.phases
  in
  let phase_row (p : Partition.Stage1.phase_trace) =
    let ratio =
      float_of_int p.Partition.Stage1.cut_after
      /. float_of_int (max 1 p.Partition.Stage1.cut_before)
    in
    let ok =
      float_of_int p.Partition.Stage1.cut_after
      <= (35.0 /. 36.0) *. float_of_int p.Partition.Stage1.cut_before +. 1e-9
    in
    (p, ratio, ok)
  in
  let rows = List.map phase_row live in
  emit "E5" ~title:"per-phase cut-weight decay"
    ~claim:"Claim 1: w(G_{i+1}) <= (1 - 1/(12 alpha)) w(G_i) = 0.9722 w(G_i)"
    (J.Obj
       [
         ("n", J.Int n);
         ( "phases",
           J.List
             (List.map
                (fun ((p : Partition.Stage1.phase_trace), ratio, ok) ->
                  J.Obj
                    [
                      ("phase", J.Int p.Partition.Stage1.phase);
                      ("cut_before", J.Int p.Partition.Stage1.cut_before);
                      ("cut_after", J.Int p.Partition.Stage1.cut_after);
                      ("ratio", J.Float ratio);
                      ("ok", J.Bool ok);
                    ])
                rows) );
         ("idle_phases", J.Int (List.length idle));
       ]);
  row "%-7s %-10s %-10s %-8s %-14s\n" "phase" "cut in" "cut out" "ratio"
    "bound (35/36)";
  List.iter
    (fun ((p : Partition.Stage1.phase_trace), ratio, ok) ->
      row "%-7d %-10d %-10d %-8.3f %-14s\n" p.Partition.Stage1.phase
        p.Partition.Stage1.cut_before p.Partition.Stage1.cut_after ratio
        (if ok then "ok" else "*** VIOLATION ***"))
    rows;
  if idle <> [] then
    row "(+ %d further scheduled phases with an already-empty cut)\n"
      (List.length idle)

let e6_diameter_growth () =
  let side = if quick then 16 else 24 in
  let g = Generators.grid side side in
  let r = Partition.Stage1.run ~stop_when_met:false ~domains ~mode g ~eps:0.4 in
  let shown = ref 0 in
  let rows =
    List.filter_map
      (fun (p : Partition.Stage1.phase_trace) ->
        if p.Partition.Stage1.parts > 1 || !shown < 1 then begin
          if p.Partition.Stage1.parts = 1 then incr shown;
          let bound = 4.0 ** float_of_int p.Partition.Stage1.phase in
          Some (p, bound, float_of_int p.Partition.Stage1.max_diameter <= bound)
        end
        else None)
      r.Partition.Stage1.phases
  in
  emit "E6" ~title:"part diameters across phases"
    ~claim:"Claim 4: parts of P_i are connected with diameter <= 4^i"
    (J.List
       (List.map
          (fun ((p : Partition.Stage1.phase_trace), bound, ok) ->
            J.Obj
              [
                ("phase", J.Int p.Partition.Stage1.phase);
                ("parts", J.Int p.Partition.Stage1.parts);
                ("max_diameter", J.Int p.Partition.Stage1.max_diameter);
                ("bound", J.Float bound);
                ("ok", J.Bool ok);
              ])
          rows));
  row "%-7s %-10s %-12s %-10s %-8s\n" "phase" "parts" "max diam" "4^i" "ok?";
  List.iter
    (fun ((p : Partition.Stage1.phase_trace), bound, ok) ->
      row "%-7d %-10d %-12d %-10.0f %-8s\n" p.Partition.Stage1.phase
        p.Partition.Stage1.parts p.Partition.Stage1.max_diameter bound
        (if ok then "ok" else "*** VIOLATION ***"))
    rows;
  row "(remaining scheduled phases keep a single part; bound holds trivially)\n"

let e7_cut_quality () =
  let n = if quick then 400 else 1000 in
  let g = Generators.apollonian (Random.State.make [| 6 |]) n in
  let results =
    parmap
      (fun eps ->
        let r = Partition.Stage1.run ~domains ~mode g ~eps in
        let cut = Partition.State.cut_edges r.Partition.Stage1.state in
        let target = eps *. float_of_int (Graph.m g) /. 2.0 in
        ( eps,
          List.length r.Partition.Stage1.phases,
          target,
          cut,
          float_of_int cut <= target ))
      [ 0.5; 0.4; 0.3; 0.2; 0.1 ]
  in
  emit "E7" ~title:"final cut vs target"
    ~claim:"Claim 3 / Theorem 3: planar inputs always reach cut <= eps m / 2"
    (J.Obj
       [
         ("n", J.Int n);
         ( "rows",
           J.List
             (List.map
                (fun (eps, phases, target, cut, ok) ->
                  J.Obj
                    [
                      ("eps", J.Float eps);
                      ("phases", J.Int phases);
                      ("target", J.Float target);
                      ("cut", J.Int cut);
                      ("ok", J.Bool ok);
                    ])
                results) );
       ]);
  row "%-7s %-9s %-11s %-9s %-8s\n" "eps" "phases" "target" "cut" "ok?";
  List.iter
    (fun (eps, phases, target, cut, ok) ->
      row "%-7.2f %-9d %-11.0f %-9d %-8s\n" eps phases target cut
        (if ok then "ok" else "*** VIOLATION ***"))
    results

let e8_randomized_partition () =
  let side = if quick then 14 else 20 in
  let g = Generators.grid side side in
  let trials = if quick then 8 else 20 in
  let det =
    Partition.Stage1.run ~domains ~mode g
      ~eps:(2.0 *. 0.5 *. float_of_int (Graph.n g) /. float_of_int (Graph.m g))
  in
  let det_rounds = det.Partition.Stage1.rounds in
  let det_cut = Partition.State.cut_edges det.Partition.Stage1.state in
  let deltas = [ 0.5; 0.25; 0.1; 0.02 ] in
  let points =
    List.concat_map
      (fun delta -> List.init trials (fun i -> (delta, i + 1)))
      deltas
  in
  let outcomes =
    parmap
      (fun (delta, seed) ->
        let r = Partition.Random_partition.run g ~eps:0.5 ~delta ~seed in
        ( delta,
          r.Partition.Random_partition.rounds,
          r.Partition.Random_partition.cut,
          float_of_int r.Partition.Random_partition.cut
          <= 0.5 *. float_of_int (Graph.n g) ))
      points
  in
  let results =
    List.map
      (fun delta ->
        let mine = List.filter (fun (d, _, _, _) -> d = delta) outcomes in
        let succ = List.length (List.filter (fun (_, _, _, ok) -> ok) mine) in
        let rounds = List.fold_left (fun a (_, r, _, _) -> a + r) 0 mine in
        let cut = List.fold_left (fun a (_, _, c, _) -> a + c) 0 mine in
        (delta, succ, rounds / trials, cut / trials))
      deltas
  in
  emit "E8" ~title:"randomized partition (Theorem 4)"
    ~claim:
      "O(poly(1/eps)(log(1/delta) + log* n)) rounds; cut <= eps n w.p. 1 - \
       delta"
    (J.Obj
       [
         ( "baseline",
           J.Obj [ ("rounds", J.Int det_rounds); ("cut", J.Int det_cut) ] );
         ( "rows",
           J.List
             (List.map
                (fun (delta, succ, avg_rounds, avg_cut) ->
                  J.Obj
                    [
                      ("delta", J.Float delta);
                      ("trials", J.Int trials);
                      ("success", J.Int succ);
                      ("avg_rounds", J.Int avg_rounds);
                      ("avg_cut", J.Int avg_cut);
                    ])
                results) );
       ]);
  row "deterministic baseline: rounds=%d cut=%d\n\n" det_rounds det_cut;
  row "%-8s %-8s %-10s %-12s %-12s\n" "delta" "trials" "success" "avg rounds"
    "avg cut";
  List.iter
    (fun (delta, succ, avg_rounds, avg_cut) ->
      row "%-8.2f %-8d %d/%-8d %-12d %-12d\n" delta trials succ trials
        avg_rounds avg_cut)
    results

let e9_spanner () =
  let n = if quick then 300 else 800 in
  let g = Generators.apollonian (Random.State.make [| 7 |]) n in
  let ours =
    List.map
      (fun eps ->
        let r = Tester.Spanner.build g ~eps in
        ( eps,
          Graph.m r.Tester.Spanner.spanner,
          (1.0 +. eps) *. float_of_int n,
          Tester.Spanner.measured_stretch g r.Tester.Spanner.spanner,
          r.Tester.Spanner.stretch_bound ))
      [ 0.5; 0.25; 0.1 ]
  in
  let en =
    List.map
      (fun k ->
        let r = Tester.Elkin_neiman.build g ~k ~delta:0.25 ~seed:2 in
        ( k,
          r.Tester.Elkin_neiman.edges,
          float_of_int n ** (1.0 +. (1.0 /. float_of_int k)) /. 0.25,
          Tester.Spanner.measured_stretch g r.Tester.Elkin_neiman.spanner,
          (2 * k) - 1 ))
      [ 2; 3; 5; 8; 12; 20 ]
  in
  emit "E9" ~title:"spanners: Corollary 17 vs Elkin-Neiman baseline"
    ~claim:
      "Cor 17: (1 + O(eps)) n edges, poly(1/eps) stretch; EN: (2k-1)-spanner, \
       O(n^{1+1/k}/delta) edges"
    (J.Obj
       [
         ("n", J.Int n);
         ("m", J.Int (Graph.m g));
         ( "ours",
           J.List
             (List.map
                (fun (eps, edges, bound, stretch, stretch_bound) ->
                  J.Obj
                    [
                      ("eps", J.Float eps);
                      ("edges", J.Int edges);
                      ("size_bound", J.Float bound);
                      ("stretch", J.Int stretch);
                      ("stretch_bound", J.Int stretch_bound);
                    ])
                ours) );
         ( "elkin_neiman",
           J.List
             (List.map
                (fun (k, edges, bound, stretch, stretch_bound) ->
                  J.Obj
                    [
                      ("k", J.Int k);
                      ("edges", J.Int edges);
                      ("size_bound", J.Float bound);
                      ("stretch", J.Int stretch);
                      ("stretch_bound", J.Int stretch_bound);
                    ])
                en) );
       ]);
  row "input: apollonian n=%d m=%d\n\n" (Graph.n g) (Graph.m g);
  row "ours   %-7s %-8s %-12s %-14s %-14s\n" "eps" "edges" "(1+eps)n"
    "stretch (meas)" "stretch bound";
  List.iter
    (fun (eps, edges, bound, stretch, stretch_bound) ->
      row "       %-7.2f %-8d %-12.0f %-14d %-14d\n" eps edges bound stretch
        stretch_bound)
    ours;
  row "\nEN     %-7s %-8s %-12s %-14s %-14s\n" "k" "edges" "size bound"
    "stretch (meas)" "2k-1";
  List.iter
    (fun (k, edges, bound, stretch, stretch_bound) ->
      row "       %-7d %-8d %-12.0f %-14d %-14d\n" k edges bound stretch
        stretch_bound)
    en

let e10_lower_bound () =
  let sizes =
    if quick then [ 128; 256; 512 ] else [ 128; 256; 512; 1024; 2048 ]
  in
  let results =
    parmap
      (fun n ->
        let rng = Random.State.make [| n; 41 |] in
        let c =
          Lowerbound.Construction.build rng ~n ~avg_degree:6.0
            ~girth_factor:1.6
        in
        let g = c.Lowerbound.Construction.graph in
        let rejected =
          not (Tester.Planarity_tester.accepts g ~eps:0.1 ~seed:1)
        in
        (n, Graph.m g, c, rejected))
      sizes
  in
  emit "E10" ~title:"the Omega(log n) lower-bound construction"
    ~claim:
      "Theorem 2 (Claims 11-12): constant-far graphs with girth Omega(log n) \
       force Omega(log n) rounds"
    (J.List
       (List.map
          (fun (n, m, c, rejected) ->
            J.Obj
              [
                ("n", J.Int n);
                ("m", J.Int m);
                ("removed", J.Int c.Lowerbound.Construction.removed);
                ( "girth",
                  match c.Lowerbound.Construction.girth with
                  | Some girth -> J.Int girth
                  | None -> J.Null );
                ("eps_far", J.Float c.Lowerbound.Construction.euler_far);
                ( "blind_radius",
                  J.Int (Lowerbound.Construction.indistinguishability_radius c)
                );
                ("rejected", J.Bool rejected);
              ])
          results));
  row "%-6s %-7s %-9s %-7s %-9s %-13s %-10s\n" "n" "m" "removed" "girth"
    "eps-far" "blind radius" "rejected?";
  List.iter
    (fun (n, m, c, rejected) ->
      row "%-6d %-7d %-9d %-7s %-9.3f %-13d %-10b\n" n m
        c.Lowerbound.Construction.removed
        (match c.Lowerbound.Construction.girth with
        | Some girth -> string_of_int girth
        | None -> "inf")
        c.Lowerbound.Construction.euler_far
        (Lowerbound.Construction.indistinguishability_radius c)
        rejected)
    results;
  row "\n(blind radius r: any one-sided tester must accept if it runs < r rounds,\n";
  row " because every r-ball is a tree; the radius grows with log n.)\n"

let e11_minor_free_testers () =
  let rng = Random.State.make [| 51 |] in
  let n = if quick then 150 else 400 in
  let cases =
    [
      ("tree (cycle-free)", Generators.random_tree rng n, `Cyc, true);
      ("grid (far from forest)", Generators.grid 14 14, `Cyc, false);
      ("grid (bipartite)", Generators.grid 14 14, `Bip, true);
      ("triangulation (far)", Generators.apollonian rng n, `Bip, false);
    ]
  in
  let prop_name = function `Cyc -> "cycle-free" | `Bip -> "bipartite" in
  let results =
    parmap
      (fun (name, g, prop, expect) ->
        let test partition =
          let t =
            match prop with
            | `Cyc ->
                snd
                  (Tester.Cycle_free_tester.run ?partition ~domains ~mode g
                     ~eps:0.3)
            | `Bip ->
                snd
                  (Tester.Bipartite_tester.run ?partition ~domains ~mode g
                     ~eps:0.3)
          in
          ( t.Tester.Harness.verdict = Tester.Harness.Accept,
            t.Tester.Harness.rounds )
        in
        let det, rounds = test None in
        let rand, _ = test (Some (Tester.Harness.Randomized 0.1)) in
        (name, prop, expect, det, rand, rounds))
      cases
  in
  emit "E11" ~title:"cycle-freeness and bipartiteness testers (minor-free promise)"
    ~claim:
      "Corollary 16: O(poly(1/eps) log n) deterministic / \
       O(poly(1/eps)(log 1/delta + log* n)) randomized"
    (J.List
       (List.map
          (fun (name, prop, expect, det, rand, rounds) ->
            J.Obj
              [
                ("input", J.String name);
                ("property", J.String (prop_name prop));
                ("expect", J.Bool expect);
                ("det", J.Bool det);
                ("rand", J.Bool rand);
                ("rounds", J.Int rounds);
              ])
          results));
  row "%-26s %-14s %-8s %-9s %-9s %-9s\n" "input" "property" "expect" "det"
    "rand" "rounds";
  List.iter
    (fun (name, prop, expect, det, rand, rounds) ->
      row "%-26s %-14s %-8b %-9b %-9b %-9d\n" name (prop_name prop) expect det
        rand rounds)
    results;
  (* Hard gate (like T1's): the deterministic partition decides every row
     with certainty, and one-sided error holds for both partitions, so a
     holding input must be accepted by [rand] too.  Soundness of [rand]
     is only promised with probability 1 - delta, so it is not gated. *)
  List.iter
    (fun (name, prop, expect, det, rand, _) ->
      if det <> expect || (expect && not rand) then begin
        Printf.eprintf
          "bench: E11: %s on %s expected accept=%b, got det=%b rand=%b\n"
          (prop_name prop) name expect det rand;
        exit 1
      end)
    results

let e12_emulation_cost () =
  let n = if quick then 300 else 800 in
  let g = Generators.apollonian (Random.State.make [| 9 |]) n in
  let r = Partition.Stage1.run ~domains ~mode g ~eps:0.3 in
  let st = r.Partition.Stage1.state in
  let stats = st.Partition.State.stats in
  emit "E12" ~title:"emulation cost accounting"
    ~claim:
      "Section 2.1.5: a super-round costs O(max part diameter) G-rounds; \
       messages stay O(log n) bits"
    (J.Obj
       [
         ("n", J.Int (Graph.n g));
         ("m", J.Int (Graph.m g));
         ("phases", J.Int (List.length r.Partition.Stage1.phases));
         ("stats", Congest.Telemetry.stats_json stats);
         ("nominal", J.Int r.Partition.Stage1.nominal_rounds);
         ( "phase_table",
           J.List
             (List.map
                (fun (p : Partition.Stage1.phase_trace) ->
                  J.Obj
                    [
                      ("phase", J.Int p.Partition.Stage1.phase);
                      ("fd_super_rounds", J.Int p.Partition.Stage1.fd_super_rounds);
                      ("max_diameter", J.Int p.Partition.Stage1.max_diameter);
                      ("max_tree_depth", J.Int p.Partition.Stage1.max_tree_depth);
                    ])
                r.Partition.Stage1.phases) );
       ]);
  row "n=%d m=%d  phases=%d\n" (Graph.n g) (Graph.m g)
    (List.length r.Partition.Stage1.phases);
  row "simulated rounds      : %d\n" stats.Congest.Stats.rounds;
  row "bandwidth-charged     : %d\n" stats.Congest.Stats.charged_rounds;
  row "nominal (paper sched.): %d\n" r.Partition.Stage1.nominal_rounds;
  row "messages              : %d\n" stats.Congest.Stats.messages;
  row "max bits on one edge  : %d (bandwidth %d)\n"
    stats.Congest.Stats.max_edge_bits stats.Congest.Stats.bandwidth;
  row "oversized (edge,round): %d\n" stats.Congest.Stats.oversized;
  row "%-7s %-14s %-12s %-14s\n" "phase" "fd super-rnds" "max diam"
    "tree depth";
  List.iter
    (fun (p : Partition.Stage1.phase_trace) ->
      row "%-7d %-14d %-12d %-14d\n" p.Partition.Stage1.phase
        p.Partition.Stage1.fd_super_rounds p.Partition.Stage1.max_diameter
        p.Partition.Stage1.max_tree_depth)
    r.Partition.Stage1.phases

let e13_partition_alternatives () =
  let sizes =
    if quick then [ 128; 256; 512 ] else [ 128; 256; 512; 1024; 2048 ]
  in
  let results =
    parmap
      (fun n ->
        let g = Generators.apollonian (Random.State.make [| n; 3 |]) n in
        let eps = 0.3 in
        let s1 = Tester.Planarity_tester.run ~domains ~mode g ~eps ~seed:1 in
        let s1_cut =
          match s1.Tester.Planarity_tester.stage1 with
          | Some r -> Partition.State.cut_edges r.Partition.Stage1.state
          | None -> -1
        in
        let en_part = Partition.En_partition.run g ~eps ~seed:1 in
        let en =
          Tester.Planarity_tester.run
            ~partition:Tester.Planarity_tester.Exponential_shifts ~domains
            ~mode g ~eps ~seed:1
        in
        let verdict r =
          match r.Tester.Planarity_tester.verdict with
          | Tester.Planarity_tester.Accept -> true
          | _ -> false
        in
        ( n,
          (s1.Tester.Planarity_tester.rounds, s1_cut, verdict s1),
          ( en.Tester.Planarity_tester.rounds,
            en_part.Partition.En_partition.cut,
            verdict en,
            en_part.Partition.En_partition.radius_bound ) ))
      sizes
  in
  emit "E13" ~title:"Stage I vs the exponential-shift partition (Section 1.1 remark)"
    ~claim:
      "replacing Stage I with the adapted Elkin-Neiman partition gives \
       O(log^2 n poly(1/eps)) rounds"
    (J.List
       (List.map
          (fun (n, (s1r, s1c, s1ok), (enr, enc, enok, radius)) ->
            J.Obj
              [
                ("n", J.Int n);
                ( "stage1",
                  J.Obj
                    [
                      ("rounds", J.Int s1r);
                      ("cut", J.Int s1c);
                      ("ok", J.Bool s1ok);
                    ] );
                ( "exp_shifts",
                  J.Obj
                    [
                      ("rounds", J.Int enr);
                      ("cut", J.Int enc);
                      ("ok", J.Bool enok);
                      ("radius_bound", J.Int radius);
                    ] );
              ])
          results));
  row "%-6s | %-22s | %-26s\n" "" "Stage I (Theorem 1)" "exp. shifts (EN-style)";
  row "%-6s | %-9s %-6s %-5s | %-9s %-6s %-5s %-6s\n" "n" "rounds" "cut"
    "okay" "rounds" "cut" "okay" "R";
  List.iter
    (fun (n, (s1r, s1c, s1ok), (enr, enc, enok, radius)) ->
      row "%-6d | %-9d %-6d %-5b | %-9d %-6d %-5b %-6d\n" n s1r s1c s1ok enr
        enc enok radius;
      if (not s1ok) || not enok then
        row "        *** COMPLETENESS VIOLATION ***\n")
    results

let e14_embedding_modes () =
  let sizes = if quick then [ 200; 400 ] else [ 200; 400; 800; 1600 ] in
  let points =
    List.concat_map
      (fun n -> [ (n, Tester.Stage2.Oracle); (n, Tester.Stage2.Collect) ])
      sizes
  in
  let outcomes =
    parmap
      (fun (n, mode) ->
        let g = Generators.apollonian (Random.State.make [| n; 7 |]) n in
        let r =
          Tester.Planarity_tester.run ~embedding:mode ~domains g ~eps:0.3
            ~seed:1
        in
        let st =
          match r.Tester.Planarity_tester.stage1 with
          | Some s1 -> s1.Partition.Stage1.state
          | None -> assert false
        in
        ( n,
          mode,
          r.Tester.Planarity_tester.rounds,
          st.Partition.State.stats.Congest.Stats.charged_rounds ))
      points
  in
  let results =
    List.map
      (fun n ->
        let find mode =
          let _, _, rounds, charged =
            List.find (fun (n', m, _, _) -> n' = n && m = mode) outcomes
          in
          (rounds, charged)
        in
        (n, find Tester.Stage2.Oracle, find Tester.Stage2.Collect))
      sizes
  in
  emit "E14" ~title:"what Ghaffari-Haeupler saves: oracle-charged vs collect-and-embed"
    ~claim:
      "GH embeds in O(D + min(log n, D)) rounds; shipping each part to its \
       root costs Omega(m_j log n / B)"
    (J.List
       (List.map
          (fun (n, (o_rounds, o_charged), (c_rounds, c_charged)) ->
            J.Obj
              [
                ("n", J.Int n);
                ( "oracle",
                  J.Obj
                    [ ("rounds", J.Int o_rounds); ("charged", J.Int o_charged) ]
                );
                ( "collect",
                  J.Obj
                    [ ("rounds", J.Int c_rounds); ("charged", J.Int c_charged) ]
                );
              ])
          results));
  row "%-6s %-24s %-24s\n" "" "oracle (GH cost)" "collect-and-embed";
  row "%-6s %-11s %-12s %-11s %-12s\n" "n" "rounds" "charged" "rounds"
    "charged";
  List.iter
    (fun (n, (o_rounds, o_charged), (c_rounds, c_charged)) ->
      row "%-6d %-11d %-12d %-11d %-12d\n" n o_rounds o_charged c_rounds
        c_charged)
    results;
  row "(the gap in charged rounds grows with part size: that gap is the\n";
  row " value of the Ghaffari-Haeupler distributed embedding algorithm.)\n"

(* ------------------------------------------------------------------ *)
(* Ablations of design choices (DESIGN.md)                             *)
(* ------------------------------------------------------------------ *)

let a1_selection_rule () =
  let n = if quick then 300 else 600 in
  let g = Generators.apollonian (Random.State.make [| 61 |]) n in
  let det = Partition.Stage1.run ~domains ~mode g ~eps:0.4 in
  let avg_ratio phases =
    let rs =
      List.filter_map
        (fun (p : Partition.Stage1.phase_trace) ->
          if p.Partition.Stage1.cut_before = 0 then None
          else
            Some
              (float_of_int p.Partition.Stage1.cut_after
              /. float_of_int p.Partition.Stage1.cut_before))
        phases
    in
    List.fold_left ( +. ) 0.0 rs /. float_of_int (max 1 (List.length rs))
  in
  let det_phases = List.length det.Partition.Stage1.phases in
  let det_ratio = avg_ratio det.Partition.Stage1.phases in
  let trials = if quick then 3 else 6 in
  let outcomes =
    parmap
      (fun seed ->
        let r =
          Partition.Random_partition.run g
            ~eps:(0.4 *. float_of_int (Graph.m g) /. (2.0 *. float_of_int n))
            ~delta:0.1 ~seed
        in
        ( r.Partition.Random_partition.phases,
          (float_of_int r.Partition.Random_partition.cut
          /. float_of_int (Graph.m g))
          ** (1.0 /. float_of_int (max 1 r.Partition.Random_partition.phases))
        ))
      (List.init trials (fun i -> i + 1))
  in
  let rnd_phases = List.fold_left (fun a (p, _) -> a + p) 0 outcomes in
  let rnd_ratio = List.fold_left (fun a (_, r) -> a +. r) 0.0 outcomes in
  let rnd_phases = float_of_int rnd_phases /. float_of_int trials in
  let rnd_ratio = rnd_ratio /. float_of_int trials in
  emit "A1" ~title:"ablation: heaviest-edge vs random weighted selection"
    ~claim:
      "Sub-step 1 (deterministic, Claim 1 rate 1/36) vs Section 4 selection \
       (Claim 14 rate 1/192)"
    (J.Obj
       [
         ( "heaviest",
           J.Obj
             [ ("phases", J.Int det_phases); ("avg_ratio", J.Float det_ratio) ]
         );
         ( "random",
           J.Obj
             [
               ("phases", J.Float rnd_phases);
               ("avg_ratio", J.Float rnd_ratio);
               ("trials", J.Int trials);
             ] );
       ]);
  row "heaviest (Stage I)  : phases=%-3d avg per-phase cut ratio=%.3f\n"
    det_phases det_ratio;
  row
    "random (Theorem 4)  : phases=%.1f avg per-phase cut ratio=%.3f (matched \
     cut target, %d seeds)\n"
    rnd_phases rnd_ratio trials;
  row "(heavier selections contract more weight per phase, as the constants\n";
  row " 1/(12 alpha) vs 1/(64 alpha) in Claims 1 and 14 predict.)\n"

let a2_corner_keys () =
  let trials = if quick then 40 else 150 in
  let outcomes =
    parmap
      (fun seed ->
        let rng = Random.State.make [| seed; 71 |] in
        let g = Generators.apollonian rng (10 + Random.State.int rng 80) in
        ( Tester.Violation.count_violating_vertex_labels g > 0,
          Tester.Violation.count_violating g > 0 ))
      (List.init trials (fun i -> i + 1))
  in
  let false_pos =
    List.length (List.filter (fun (v, _) -> v) outcomes)
  in
  let corner = List.length (List.filter (fun (_, c) -> c) outcomes) in
  let far =
    Generators.far_from_planar (Random.State.make [| 72 |]) ~n:100 ~eps:0.25
  in
  let far_vertex = Tester.Violation.count_violating_vertex_labels far in
  let far_corner = Tester.Violation.count_violating far in
  let far_dist = Planarity.Distance.euler_lower_bound far in
  emit "A2" ~title:"ablation: vertex-level labels vs corner keys (Definition 7)"
    ~claim:
      "Claim 10 as stated fails with vertex-level labels; the corner \
       refinement repairs it"
    (J.Obj
       [
         ("trials", J.Int trials);
         ("vertex_label_false_positives", J.Int false_pos);
         ("corner_key_false_positives", J.Int corner);
         ( "far_input",
           J.Obj
             [
               ("vertex", J.Int far_vertex);
               ("corner", J.Int far_corner);
               ("certified_distance", J.Int far_dist);
             ] );
       ]);
  row "planar triangulations with false 'violating edges':\n";
  row "  vertex-level labels : %d / %d  (one-sidedness broken)\n" false_pos
    trials;
  row "  corner keys         : %d / %d\n" corner trials;
  row "on far graphs both detect plenty (n=100, eps=0.25):\n";
  row "  vertex-level=%d corner=%d (certified distance >= %d)\n" far_vertex
    far_corner far_dist

(* Wall-clock one thunk, serially (never inside [parmap]: concurrent
   workers would distort the clock). *)
let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

let a3_adaptive_schedule () =
  let n = if quick then 300 else 600 in
  let g = Generators.apollonian (Random.State.make [| 81 |]) n in
  let results =
    (* Timed serially: the whole point of the slow/fast columns is the
       wall-clock effect of quiescent-round fast-forwarding on the full
       fixed schedule. *)
    List.map
      (fun eps ->
        let a = Partition.Stage1.run ~domains ~mode g ~eps in
        let f_slow, slow_s =
          time (fun () ->
              Partition.Stage1.run ~stop_when_met:false ~domains ~mode
                ~fast_forward:false g ~eps)
        in
        let f, fast_s =
          time (fun () ->
              Partition.Stage1.run ~stop_when_met:false ~domains ~mode g ~eps)
        in
        let stats r =
          r.Partition.Stage1.state.Partition.State.stats
        in
        assert (Congest.Stats.(
          (stats f_slow).rounds = (stats f).rounds
          && (stats f_slow).charged_rounds = (stats f).charged_rounds
          && (stats f_slow).messages = (stats f).messages
          && (stats f_slow).total_bits = (stats f).total_bits));
        ( eps,
          (List.length a.Partition.Stage1.phases, a.Partition.Stage1.rounds),
          (List.length f.Partition.Stage1.phases, f.Partition.Stage1.rounds),
          Partition.Stage1.phases_for ~eps ~alpha:3,
          (stats f).Congest.Stats.fast_forwarded_rounds,
          slow_s,
          fast_s ))
      [ 0.5; 0.3 ]
  in
  emit "A3" ~title:"ablation: adaptive early stop vs the full fixed schedule"
    ~claim:
      "stop_when_met skips provably idle phases; the worst-case analysis \
       needs the full t = O(log 1/eps); fast-forward makes the idle tail \
       O(1) per quiet span"
    (J.List
       (List.map
          (fun (eps, (ap, ar), (fp, fr), t_max, ff, slow_s, fast_s) ->
            J.Obj
              [
                ("eps", J.Float eps);
                ( "adaptive",
                  J.Obj [ ("phases", J.Int ap); ("rounds", J.Int ar) ] );
                ("full", J.Obj [ ("phases", J.Int fp); ("rounds", J.Int fr) ]);
                ("t_max", J.Int t_max);
                ("fast_forwarded_rounds", J.Int ff);
                ("full_no_ff_seconds", J.Float slow_s);
                ("full_ff_seconds", J.Float fast_s);
                ("ff_speedup", J.Float (slow_s /. max 1e-9 fast_s));
              ])
          results));
  (* The wall-clock column set rides on the same [--no-timings] switch as
     the Bechamel section: with it off, every printed cell is a pure
     function of simulated accounting. *)
  if timings then
    row "%-7s %-18s %-18s %-7s %-9s %-22s\n" "eps" "adaptive (ph/rnds)"
      "full (ph/rnds)" "t_max" "fast-fwd" "full wall-clock (ff off/on)"
  else
    row "%-7s %-18s %-18s %-7s %-9s\n" "eps" "adaptive (ph/rnds)"
      "full (ph/rnds)" "t_max" "fast-fwd";
  List.iter
    (fun (eps, (ap, ar), (fp, fr), t_max, ff, slow_s, fast_s) ->
      if timings then
        row "%-7.2f %3d / %-12d %3d / %-12d %-7d %-9d %.3fs / %.3fs (%.1fx)\n"
          eps ap ar fp fr t_max ff slow_s fast_s (slow_s /. max 1e-9 fast_s)
      else row "%-7.2f %3d / %-12d %3d / %-12d %-7d %-9d\n" eps ap ar fp fr t_max ff)
    results

(* ------------------------------------------------------------------ *)
(* Engine wall-clock: domain sharding and fast-forward (tentpole PR)    *)
(* ------------------------------------------------------------------ *)

let p1_engine_wallclock () =
  let n = if quick then 512 else 2048 in
  let g = Generators.apollonian (Random.State.make [| n |]) n in
  (* Serial timing on purpose; [parmap] concurrency would distort it. *)
  let baseline, base_s =
    time (fun () ->
        Tester.Planarity_tester.run ~domains:1 ~fast_forward:false ~mode g ~eps:0.3
          ~seed:1)
  in
  let run_d d =
    let r, s =
      time (fun () ->
          Tester.Planarity_tester.run ~domains:d ~mode g ~eps:0.3 ~seed:1)
    in
    (* The determinism contract, checked on the spot: every statistic is
       independent of the domain count and of fast-forwarding. *)
    assert (
      r.Tester.Planarity_tester.rounds
      = baseline.Tester.Planarity_tester.rounds
      && r.Tester.Planarity_tester.messages
         = baseline.Tester.Planarity_tester.messages
      && r.Tester.Planarity_tester.total_bits
         = baseline.Tester.Planarity_tester.total_bits);
    (d, r, s)
  in
  let runs = List.map run_d [ 1; 2; 4 ] in
  let cores = Domain.recommended_domain_count () in
  emit "P1"
    ~title:"engine wall-clock: E1 tester under --domains and fast-forward"
    ~claim:
      "identical stats for any domain count; wall-clock gains come from \
       sharded stepping (needs real cores) and O(1) quiescent-round skips"
    (J.Obj
       [
         ("family", J.String "apollonian");
         ("n", J.Int n);
         ("host_cores", J.Int cores);
         ("baseline_no_ff_seconds", J.Float base_s);
         ( "runs",
           J.List
             (List.map
                (fun (d, r, s) ->
                  J.Obj
                    [
                      ("domains", J.Int d);
                      ("seconds", J.Float s);
                      ("speedup_vs_no_ff", J.Float (base_s /. max 1e-9 s));
                      ( "fast_forwarded_rounds",
                        J.Int r.Tester.Planarity_tester.fast_forwarded_rounds
                      );
                      ("rounds", J.Int r.Tester.Planarity_tester.rounds);
                    ])
                runs) );
       ]);
  row "input: apollonian n=%d; host cores available: %d\n" n cores;
  if timings then begin
    row "baseline (domains=1, fast-forward off): %.3fs\n\n" base_s;
    row "%-9s %-10s %-18s %-12s\n" "domains" "seconds" "speedup vs no-ff"
      "fast-fwd rounds";
    List.iter
      (fun (d, r, s) ->
        row "%-9d %-10.3f %-18.2f %-12d\n" d s
          (base_s /. max 1e-9 s)
          r.Tester.Planarity_tester.fast_forwarded_rounds)
      runs
  end
  else begin
    row "%-9s %-12s\n" "domains" "fast-fwd rounds";
    List.iter
      (fun (d, r, _) ->
        row "%-9d %-12d\n" d r.Tester.Planarity_tester.fast_forwarded_rounds)
      runs
  end;
  (match trace_path with
  | Some path ->
      (* One extra traced run of the same point: the recording hooks stay
         out of the timed runs above, so [--trace] cannot distort them. *)
      let tr = Congest.Trace.create () in
      ignore (Tester.Planarity_tester.run ~domains ~trace:tr g ~eps:0.3 ~seed:1);
      Congest.Trace.finish tr;
      (try Report.Ctrace.write path tr
       with Sys_error msg ->
         Obs.Log.errorf "bench: cannot write trace %s: %s" path msg;
         exit 1);
      row "trace written to %s (planartrace info/edges/phases/export)\n" path
  | None -> ());
  if cores < 4 then
    row
      "(host exposes %d core(s): domain sharding cannot yield wall-clock \
       gains here;\n the speedups above come from quiescent-round \
       fast-forwarding, which is\n exact — every statistic matches the \
       baseline run.)\n"
      cores

(* ------------------------------------------------------------------ *)
(* Fault injection: verdict stability (tentpole PR)                     *)
(* ------------------------------------------------------------------ *)

let r1_fault_stability () =
  let n = if quick then 96 else 200 in
  let trials = if quick then 3 else 5 in
  let drops = if quick then [ 0.0; 0.01; 0.05; 0.2 ] else [ 0.0; 0.002; 0.01; 0.05; 0.2 ] in
  let families =
    [
      ( "apollonian (planar)",
        (fun seed -> Generators.apollonian (Random.State.make [| seed; 91 |]) n),
        true );
      ( "far-from-planar",
        (fun seed ->
          Generators.far_from_planar
            (Random.State.make [| seed; 92 |])
            ~n ~eps:0.25),
        false );
    ]
  in
  (* The built-in sweep varies only the drop probability; [--faults SPEC]
     appends one user-chosen policy column (label = its canonical spec). *)
  let policies =
    List.map
      (fun drop ->
        ( Printf.sprintf "drop=%.3f" drop,
          (fun seed ->
            if drop = 0.0 then None
            else Some (Congest.Faults.make ~seed ~drop ())) ))
      drops
    @
    match faults_spec with
    | None -> []
    | Some p ->
        [
          ( Congest.Faults.to_spec p,
            fun seed -> Some { p with Congest.Faults.seed } );
        ]
  in
  let points =
    List.concat_map
      (fun (fname, gen, planar) ->
        List.concat_map
          (fun (pname, pol) ->
            List.init trials (fun i -> (fname, gen, planar, pname, pol, i + 1)))
          policies)
      families
  in
  let outcomes =
    parmap
      (fun (fname, gen, planar, pname, pol, seed) ->
        let g = gen seed in
        let r =
          Tester.Planarity_tester.run ~domains ?faults:(pol seed) ~mode g
            ~eps:(if planar then 0.3 else 0.15)
            ~seed
        in
        let verdict =
          match r.Tester.Planarity_tester.verdict with
          | Tester.Planarity_tester.Accept -> `Accept
          | Tester.Planarity_tester.Reject _ -> `Reject
          | Tester.Planarity_tester.Degraded _ -> `Degraded
        in
        (* The invariant under test: faults must never manufacture
           rejection evidence on a planar input (one-sided error is
           preserved by construction — Reject downgrades to Degraded
           whenever a fault fired). *)
        if planar && verdict = `Reject then
          failwith
            (Printf.sprintf
               "R1 VIOLATION: planar input rejected under faults (%s, %s, \
                seed %d)"
               fname pname seed);
        (fname, pname, verdict, r.Tester.Planarity_tester.dropped))
      points
  in
  let results =
    List.concat_map
      (fun (fname, _, planar) ->
        List.map
          (fun (pname, _) ->
            let mine =
              List.filter (fun (f, p, _, _) -> f = fname && p = pname) outcomes
            in
            let count v =
              List.length (List.filter (fun (_, _, v', _) -> v' = v) mine)
            in
            let dropped =
              List.fold_left (fun a (_, _, _, d) -> a + d) 0 mine
            in
            ( fname,
              planar,
              pname,
              count `Accept,
              count `Degraded,
              count `Reject,
              dropped / max 1 (List.length mine) ))
          policies)
      families
  in
  emit "R1" ~title:"verdict stability vs fault rate"
    ~claim:
      "one-sided error survives benign faults: a planar input accepts or \
       degrades, never rejects; an eps-far input's rejection evidence \
       degrades to an explicit 'no verdict' once faults interfere"
    (J.Obj
       [
         ("n", J.Int n);
         ("trials", J.Int trials);
         ( "rows",
           J.List
             (List.map
                (fun (fname, planar, pname, acc, degr, rej, avg_dropped) ->
                  J.Obj
                    [
                      ("family", J.String fname);
                      ("planar", J.Bool planar);
                      ("policy", J.String pname);
                      ("accept", J.Int acc);
                      ("degraded", J.Int degr);
                      ("reject", J.Int rej);
                      ("avg_dropped", J.Int avg_dropped);
                      ("one_sided_ok", J.Bool (not (planar && rej > 0)));
                    ])
                results) );
       ]);
  row "n=%d, %d fault seeds per point; verdict counts per policy\n\n" n trials;
  row "%-22s %-22s %-8s %-10s %-8s %-12s\n" "family" "policy" "accept"
    "degraded" "reject" "avg dropped";
  List.iter
    (fun (fname, planar, pname, acc, degr, rej, avg_dropped) ->
      row "%-22s %-22s %-8d %-10d %-8d %-12d%s\n" fname pname acc degr rej
        avg_dropped
        (if planar && rej > 0 then "  *** ONE-SIDED ERROR VIOLATION ***"
         else ""))
    results

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock micro-benchmarks                                 *)
(* ------------------------------------------------------------------ *)

let bechamel_section () =
  let open Bechamel in
  let g_small = Generators.apollonian (Random.State.make [| 3 |]) 150 in
  let g_planarity = Generators.apollonian (Random.State.make [| 4 |]) 1000 in
  let far =
    Generators.far_from_planar (Random.State.make [| 5 |]) ~n:150 ~eps:0.25
  in
  let mk name f = Test.make ~name (Staged.stage f) in
  let tests =
    [
      mk "lr_planarity_n1000" (fun () ->
          ignore (Planarity.Lr.is_planar g_planarity));
      mk "lr_embed_n1000" (fun () -> ignore (Planarity.Lr.embed g_planarity));
      mk "stage1_n150" (fun () -> ignore (Partition.Stage1.run ~mode g_small ~eps:0.3));
      mk "full_tester_planar_n150" (fun () ->
          ignore (Tester.Planarity_tester.run ~mode g_small ~eps:0.3 ~seed:1));
      mk "full_tester_far_n150" (fun () ->
          ignore (Tester.Planarity_tester.run ~mode far ~eps:0.2 ~seed:1));
      mk "spanner_n150" (fun () -> ignore (Tester.Spanner.build g_small ~eps:0.3));
      mk "elkin_neiman_n150_k4" (fun () ->
          ignore (Tester.Elkin_neiman.build g_small ~k:4 ~delta:0.2 ~seed:1));
      mk "girth_n150" (fun () -> ignore (Girth.girth g_small));
    ]
  in
  let grouped = Test.make_grouped ~name:"repro" tests in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:20
      ~quota:(Time.second (if quick then 0.25 else 1.0))
      ()
  in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      instance raw
  in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort compare rows in
  let estimates =
    List.filter_map
      (fun (name, ols) ->
        match Analyze.OLS.estimates ols with
        | Some [ est ] -> Some (name, est)
        | _ -> None)
      rows
  in
  emit "B" ~title:"wall-clock micro-benchmarks (Bechamel)"
    ~claim:"simulator throughput; not a paper claim"
    (J.List
       (List.map
          (fun (name, est) ->
            J.Obj [ ("name", J.String name); ("ns_per_run", J.Float est) ])
          estimates));
  row "%-40s %-16s\n" "benchmark" "ns/run (ols)";
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> row "%-40s %-16.0f\n" name est
      | _ -> row "%-40s (no estimate)\n" name)
    rows

(* ------------------------------------------------------------------ *)

(* M1: the million-node memory substrate.  The resident cost of a tester
   run splits into the CSR graph (8 B/node + 32 B/edge), the engine
   pool's per-edge accounting (16 B/edge fault-free), and growable slabs
   sized by peak per-round traffic, not by the graph.  All byte figures
   are analytic ({!Graph.storage_bytes}, {!Engine.footprint}) and thus
   deterministic; wall time is the only host-dependent column.  Serial
   on purpose — parmap concurrency would distort the timings. *)
let m1_memory_substrate () =
  let sizes = if quick then [ 2_500; 10_000 ] else [ 65_536; 1_000_000 ] in
  let points =
    List.concat_map (fun n -> [ ("grid", n); ("far", n) ]) sizes
  in
  let results =
    List.map
      (fun (family, n) ->
        let g =
          match family with
          | "grid" ->
              let r, c = Generators.grid_dims n in
              Generators.grid r c
          | _ ->
              Generators.far_from_planar
                (Random.State.make [| 97; n |])
                ~n ~eps:0.1
        in
        let gnode, gedge = Graph.storage_bytes g in
        let r, wall =
          time (fun () ->
              Tester.Planarity_tester.run ~domains ~mode g ~eps:0.3 ~seed:1)
        in
        let st =
          match r.Tester.Planarity_tester.stage1 with
          | Some s -> s.Partition.Stage1.state
          | None -> assert false
        in
        let fp = Partition.State.Eng.footprint st.Partition.State.pool in
        let nn = Graph.n g and m = Graph.m g in
        let per_node =
          float_of_int (gnode + fp.Partition.State.Eng.node_bytes)
          /. float_of_int nn
        and per_edge =
          float_of_int (gedge + fp.Partition.State.Eng.edge_bytes)
          /. float_of_int (max 1 m)
        in
        let verdict =
          match r.Tester.Planarity_tester.verdict with
          | Tester.Planarity_tester.Accept -> "accept"
          | Tester.Planarity_tester.Reject _ -> "reject"
          | Tester.Planarity_tester.Degraded _ -> "degraded"
        in
        ( family,
          nn,
          m,
          gnode + fp.Partition.State.Eng.node_bytes,
          gedge + fp.Partition.State.Eng.edge_bytes,
          fp.Partition.State.Eng.slab_bytes,
          per_node,
          per_edge,
          wall,
          r.Tester.Planarity_tester.rounds,
          verdict ))
      points
  in
  emit "M1" ~title:"memory substrate: bytes per node / edge at scale"
    ~claim:
      "engineering target, not a paper claim: flat per-edge state keeps \
       the substrate at <= 64 bytes/edge so 10^6..10^7-node runs fit in \
       RAM"
    (J.List
       (List.map
          (fun (family, n, m, nb, eb, slab, pn, pe, wall, rounds, verdict) ->
            J.Obj
              [
                ("family", J.String family);
                ("n", J.Int n);
                ("m", J.Int m);
                ("node_bytes", J.Int nb);
                ("edge_bytes", J.Int eb);
                ("slab_bytes", J.Int slab);
                ("bytes_per_node", J.Float pn);
                ("bytes_per_edge", J.Float pe);
                ("wall_seconds", J.Float wall);
                ("rounds", J.Int rounds);
                ("verdict", J.String verdict);
              ])
          results));
  row "%-8s %-9s %-9s %-8s %-8s %-10s %-9s %-9s %-8s\n" "family" "n" "m"
    "B/node" "B/edge" "slab(MB)" "wall(s)" "rounds" "verdict";
  List.iter
    (fun (family, n, m, _, _, slab, pn, pe, wall, rounds, verdict) ->
      row "%-8s %-9d %-9d %-8.1f %-8.1f %-10.2f %-9.2f %-9d %-8s\n" family n
        m pn pe
        (float_of_int slab /. 1.048576e6)
        wall rounds verdict)
    results

(* ------------------------------------------------------------------ *)
(* Compiled hot path: fiber vs compiled execution (tentpole PR)         *)
(* ------------------------------------------------------------------ *)

(* C1 times the E1 workloads (planar apollonian and grid at the largest
   E1 size) under both execution modes and both fast-forward settings,
   asserting on the spot that every statistic in the report is
   byte-identical across modes.  The headline metric is per-round
   throughput — executed rounds per second, measured with fast-forward
   off so every simulated round is an actual array pass / fiber round —
   for the compiled path against the fiber reference.  The ff-on rows
   give the end-to-end wall-clock view of the same runs (there the
   remaining fiber work — Stage II, general node programs — bounds the
   ratio by Amdahl's law).

   C1_MIN_SPEEDUP=<x> turns the grid ff-off per-round speedup into a
   hard gate (exit 1 below x) — the CI compiled leg sets it; unset, C1
   only reports. *)
let c1_compiled_hot_path () =
  let n = if quick then 512 else 2048 in
  let mk_g family =
    match family with
    | "apollonian" -> Generators.apollonian (Random.State.make [| n |]) n
    | _ ->
        let side = int_of_float (sqrt (float_of_int n)) in
        Generators.grid side side
  in
  (* Serial timing on purpose; [parmap] concurrency would distort it.
     Stage I only: that is where the compiled hot path runs (Stage II is
     a constant number of rounds per part and always uses the fiber
     engine, so folding it in would just dilute the measurement). *)
  let point family ff =
    let g = mk_g family in
    let run1 m =
      time (fun () ->
          Partition.Stage1.run ~measure_diameters:false ~domains:1
            ~fast_forward:ff ~mode:m g ~eps:0.1)
    in
    (* Best-of-3: the per-round gate below compares two wall-clock
       measurements, so take the minimum over a few reps to keep
       scheduler noise out of the ratio. *)
    let run m =
      let r, s = run1 m in
      let best = ref s in
      for _ = 2 to 3 do
        let _, s' = run1 m in
        if s' < !best then best := s'
      done;
      (r, !best)
    in
    ignore (run1 Congest.Compiled.Compiled) (* warm the allocator *);
    let rf, sf = run Congest.Compiled.Fiber in
    let rc, sc = run Congest.Compiled.Compiled in
    let stats (r : Partition.Stage1.result) =
      r.Partition.Stage1.state.Partition.State.stats
    in
    (* The byte-identity contract, checked on the spot. *)
    assert (
      rf.Partition.Stage1.rejected = rc.Partition.Stage1.rejected
      && rf.Partition.Stage1.rounds = rc.Partition.Stage1.rounds
      && (stats rf).Congest.Stats.messages = (stats rc).Congest.Stats.messages
      && (stats rf).Congest.Stats.total_bits
         = (stats rc).Congest.Stats.total_bits
      && (stats rf).Congest.Stats.fast_forwarded_rounds
         = (stats rc).Congest.Stats.fast_forwarded_rounds
      && rf.Partition.Stage1.nominal_rounds
         = rc.Partition.Stage1.nominal_rounds);
    let executed =
      rf.Partition.Stage1.rounds
      - (stats rf).Congest.Stats.fast_forwarded_rounds
    in
    (family, ff, Graph.n g, Graph.m g, rf, executed, sf, sc)
  in
  let points =
    [
      point "apollonian" false;
      point "grid" false;
      point "apollonian" true;
      point "grid" true;
    ]
  in
  emit "C1" ~title:"compiled hot path: fiber vs compiled execution modes"
    ~claim:
      "Stage I lockstep primitives as fiber-free array passes: \
       byte-identical stats, >=10x per-round throughput on the peeling \
       rounds (ff off = every simulated round executed individually)"
    (J.List
       (List.map
          (fun (family, ff, gn, gm, rf, executed, sf, sc) ->
            J.Obj
              ([
                 ("family", J.String family);
                 ("n", J.Int gn);
                 ("m", J.Int gm);
                 ("fast_forward", J.Bool ff);
                 ("rounds", J.Int rf.Partition.Stage1.rounds);
                 ("executed_rounds", J.Int executed);
                 ( "messages",
                   J.Int
                     rf.Partition.Stage1.state.Partition.State.stats
                       .Congest.Stats.messages );
                 ("stats_identical", J.Bool true);
               ]
              @
              if timings then
                [
                  ("fiber_seconds", J.Float sf);
                  ("compiled_seconds", J.Float sc);
                  ( "fiber_rounds_per_sec",
                    J.Float (float_of_int executed /. max 1e-9 sf) );
                  ( "compiled_rounds_per_sec",
                    J.Float (float_of_int executed /. max 1e-9 sc) );
                  ("speedup", J.Float (sf /. max 1e-9 sc));
                ]
              else []))
          points));
  (* eps = 0.1 rather than E1's 0.3: more phases means more peeling
     super-rounds, which is exactly the hot path this experiment
     measures (per-phase setup is shared between the modes). *)
  row
    "input: E1 graph families at n=%d, eps=0.1 (planar; Stage I partition \
     only)\n"
    n;
  if timings then begin
    row "%-12s %-5s %-9s %-10s %-10s %-12s %-12s %-8s\n" "family" "ff"
      "executed" "fiber(s)" "compiled(s)" "fiber r/s" "compiled r/s" "speedup";
    List.iter
      (fun (family, ff, _, _, _, executed, sf, sc) ->
        row "%-12s %-5s %-9d %-10.3f %-10.3f %-12.0f %-12.0f %-8.2fx\n" family
          (if ff then "on" else "off")
          executed sf sc
          (float_of_int executed /. max 1e-9 sf)
          (float_of_int executed /. max 1e-9 sc)
          (sf /. max 1e-9 sc))
      points
  end
  else begin
    row "%-12s %-5s %-9s %-10s %-16s\n" "family" "ff" "rounds" "executed"
      "stats identical";
    List.iter
      (fun (family, ff, _, _, rf, executed, _, _) ->
        row "%-12s %-5s %-9d %-10d %-16s\n" family
          (if ff then "on" else "off")
          rf.Partition.Stage1.rounds executed "yes")
      points
  end;
  match Sys.getenv_opt "C1_MIN_SPEEDUP" with
  | None -> ()
  | Some v -> (
      match float_of_string_opt v with
      | None ->
          Printf.eprintf "bench: C1_MIN_SPEEDUP must be a number, got %S\n" v;
          exit 2
      | Some min_speedup ->
          List.iter
            (fun (family, ff, _, _, _, _, sf, sc) ->
              if family = "grid" && not ff then begin
                let speedup = sf /. max 1e-9 sc in
                if speedup < min_speedup then begin
                  Printf.eprintf
                    "bench: C1: grid ff-off per-round speedup %.2fx below \
                     required %.2fx\n"
                    speedup min_speedup;
                  exit 1
                end
                else
                  row
                    "C1 gate: grid ff-off per-round speedup %.2fx >= %.2fx\n"
                    speedup min_speedup
              end)
            points)

(* T1: the property portfolio on the shared Stage I harness.  One
   holding and one certified-far instance per property; the far
   instances are constructed so rejection is deterministic (planted
   violations outnumber eps*m/2, the most edges Stage I's cut can
   remove), so every verdict below is a hard expectation, not a
   statistical one. *)
let t1_property_portfolio () =
  let rng = Random.State.make [| 81 |] in
  let n = if quick then 128 else 256 in
  let eps = 0.1 in
  (* Mirror odd_cycle_planted's square count: diagonals sit in
     vertex-disjoint unit squares anchored at even (i, j). *)
  let side = max 3 (int_of_float (sqrt (float_of_int n))) in
  let per_axis = ((side - 2) / 2) + 1 in
  let planted = per_axis * per_axis in
  let cases =
    [
      ("planarity", "apollonian", Generators.apollonian rng n, true);
      ( "planarity", "far_from_planar",
        Generators.far_from_planar rng ~n ~eps:0.3, false );
      ( "bipartite", "bipartite_perturbed",
        Generators.bipartite_perturbed rng n, true );
      ( "bipartite", "odd_cycle_planted",
        Generators.odd_cycle_planted rng ~n ~k:planted, false );
      ("cycle-free", "forest_close", Generators.forest_close rng n, true);
      ( "cycle-free", "forest_plus_edges",
        Generators.forest_plus_edges rng ~n ~k:(n / 2), false );
    ]
  in
  let verdict_name (v : Tester.Harness.verdict) =
    match v with
    | Tester.Harness.Accept -> "accept"
    | Tester.Harness.Reject _ -> "reject"
    | Tester.Harness.Degraded _ -> "degraded"
  in
  let results =
    parmap
      (fun (prop, inst, g, expect) ->
        let verdict, rounds, nominal, messages, bits =
          match prop with
          | "planarity" ->
              let r =
                Tester.Planarity_tester.run ~domains ~mode g ~eps ~seed:1
              in
              ( verdict_name r.Tester.Planarity_tester.verdict,
                r.Tester.Planarity_tester.rounds,
                r.Tester.Planarity_tester.nominal_rounds,
                r.Tester.Planarity_tester.messages,
                r.Tester.Planarity_tester.total_bits )
          | "bipartite" ->
              let _, t =
                Tester.Bipartite_tester.run ~domains ~mode ~seed:1 g ~eps
              in
              ( verdict_name t.Tester.Harness.verdict,
                t.Tester.Harness.rounds,
                t.Tester.Harness.nominal_rounds,
                t.Tester.Harness.messages,
                t.Tester.Harness.total_bits )
          | _ ->
              let _, t =
                Tester.Cycle_free_tester.run ~domains ~mode ~seed:1 g ~eps
              in
              ( verdict_name t.Tester.Harness.verdict,
                t.Tester.Harness.rounds,
                t.Tester.Harness.nominal_rounds,
                t.Tester.Harness.messages,
                t.Tester.Harness.total_bits )
        in
        ( prop, inst, Graph.n g, Graph.m g, expect, verdict, rounds, nominal,
          messages, bits ))
      cases
  in
  emit "T1" ~title:"property portfolio on the shared Stage I harness"
    ~claim:
      "Section 1 framework: one Stage I partition serves planarity, \
       bipartiteness and cycle-freeness Stage II checks (one-sided error)"
    (J.List
       (List.map
          (fun (prop, inst, n, m, expect, verdict, rounds, nominal, messages,
                bits) ->
            J.Obj
              [
                ("property", J.String prop);
                ("instance", J.String inst);
                ("n", J.Int n);
                ("m", J.Int m);
                ("expect_accept", J.Bool expect);
                ("verdict", J.String verdict);
                ("rounds", J.Int rounds);
                ("nominal_rounds", J.Int nominal);
                ("messages", J.Int messages);
                ("total_bits", J.Int bits);
              ])
          results));
  row "%-12s %-20s %-6s %-6s %-8s %-9s %-9s %-12s %-10s\n" "property"
    "instance" "n" "m" "expect" "verdict" "rounds" "nominal" "messages";
  List.iter
    (fun (prop, inst, n, m, expect, verdict, rounds, nominal, messages, _) ->
      row "%-12s %-20s %-6d %-6d %-8s %-9s %-9d %-12d %-10d\n" prop inst n m
        (if expect then "accept" else "reject")
        verdict rounds nominal messages)
    results;
  (* Hard gate (like C1's): every row's verdict is deterministic by
     construction, so any mismatch is a real regression, not noise. *)
  List.iter
    (fun (prop, inst, _, _, expect, verdict, _, _, _, _) ->
      let expected = if expect then "accept" else "reject" in
      if verdict <> expected then begin
        Printf.eprintf "bench: T1: %s on %s expected %s, got %s\n" prop inst
          expected verdict;
        exit 1
      end)
    results

(* ------------------------------------------------------------------ *)

(* L1: live-observability overhead.  The heartbeat contract is that
   attaching one changes nothing in the simulated stream and costs a
   negligible slice of wall-clock: publication is host-side, runs at
   quiescent round boundaries only, and its cadence is bounded (every
   8192 charged rounds and at most ~1/s).  L1 measures the grid
   workload with and without a heartbeat publishing to a scratch file
   (best-of-3 wall both ways, C1's protocol) and asserts on the spot
   that the simulated totals are identical.

   L1_MAX_OVERHEAD_PCT=<x> turns the wall overhead into a hard gate
   (exit 1 above x percent) — the CI live leg sets it to 2; unset, L1
   only reports (the ratio of two sub-second timings is noisy on a
   loaded machine). *)
let l1_heartbeat_overhead () =
  let n = if quick then 512 else 2048 in
  let side = int_of_float (sqrt (float_of_int n)) in
  let g = Generators.grid side side in
  let eps = 0.2 in
  let hb_file = Filename.temp_file "planar-l1-hb" ".json" in
  let publishes = ref 0 in
  let run_once hb =
    time (fun () ->
        Tester.Planarity_tester.run ~domains:1 ~mode g ~eps ~seed:1
          ?heartbeat:hb)
  in
  (* Serial, best-of-3 (see C1): the gate compares two wall-clock
     measurements, so take minima to keep scheduler noise out. *)
  let best_of_3 mk =
    let r, s = run_once (mk ()) in
    let best = ref s in
    for _ = 2 to 3 do
      let _, s' = run_once (mk ()) in
      if s' < !best then best := s'
    done;
    (r, !best)
  in
  ignore (run_once None) (* warm the allocator *);
  let r_off, s_off = best_of_3 (fun () -> None) in
  let r_on, s_on =
    best_of_3 (fun () ->
        (* Fresh heartbeat per rep: seq / cadence state is per-run. *)
        publishes := 0;
        Some
          (Obs.Heartbeat.create ~path:hb_file
             ~on_publish:(fun _ -> incr publishes)
             ~run_id:"bench:L1" ~fingerprint:"bench:L1"
             ~property:"planarity" ()))
  in
  (try Sys.remove hb_file with Sys_error _ -> ());
  (* The tentpole contract, checked on the spot: a heartbeat is
     invisible to the simulated accounting. *)
  let module T = Tester.Planarity_tester in
  assert (
    r_off.T.rounds = r_on.T.rounds
    && r_off.T.nominal_rounds = r_on.T.nominal_rounds
    && r_off.T.messages = r_on.T.messages
    && r_off.T.total_bits = r_on.T.total_bits
    && r_off.T.fast_forwarded_rounds = r_on.T.fast_forwarded_rounds);
  let overhead_pct =
    if s_off > 0.0 then 100.0 *. (s_on -. s_off) /. s_off else 0.0
  in
  emit "L1" ~title:"heartbeat overhead: live telemetry vs bare run"
    ~claim:
      "host-side heartbeat publication (8192-round / 1s cadence) leaves the \
       simulated stream byte-identical and costs < 2% wall-clock"
    (J.Obj
       ([
          ("family", J.String "grid");
          ("n", J.Int (Graph.n g));
          ("m", J.Int (Graph.m g));
          ("eps", J.Float eps);
          ("rounds", J.Int r_off.T.rounds);
          ("messages", J.Int r_off.T.messages);
          ("publishes_per_run", J.Int !publishes);
          ("stats_identical", J.Bool true);
        ]
       @
       if timings then
         [
           ("bare_seconds", J.Float s_off);
           ("heartbeat_seconds", J.Float s_on);
           ("overhead_pct", J.Float overhead_pct);
         ]
       else []));
  row "input: grid n=%d, eps=%g; heartbeat at default cadence to %s\n"
    (Graph.n g) eps "a scratch file";
  if timings then begin
    row "%-10s %-12s %-14s %-10s %s\n" "rounds" "bare(s)" "heartbeat(s)"
      "overhead" "publishes/run";
    row "%-10d %-12.4f %-14.4f %-9.2f%% %d\n" r_off.T.rounds s_off s_on
      overhead_pct !publishes
  end
  else
    row "rounds=%d publishes/run=%d stats identical\n" r_off.T.rounds
      !publishes;
  match Sys.getenv_opt "L1_MAX_OVERHEAD_PCT" with
  | None -> ()
  | Some v -> (
      match float_of_string_opt v with
      | None ->
          Printf.eprintf "bench: L1_MAX_OVERHEAD_PCT must be a number, got %S\n"
            v;
          exit 2
      | Some max_pct ->
          if overhead_pct > max_pct then begin
            Printf.eprintf
              "bench: L1: heartbeat overhead %.2f%% above allowed %.2f%%\n"
              overhead_pct max_pct;
            exit 1
          end
          else
            row "L1 gate: heartbeat overhead %.2f%% <= %.2f%%\n" overhead_pct
              max_pct)

let () =
  if want "E1" then e1_rounds_vs_n ();
  if want "E2" then e2_rounds_vs_eps ();
  if want "E3" then e3_completeness ();
  if want "E4" then e4_soundness ();
  if want "E5" then e5_weight_decay ();
  if want "E6" then e6_diameter_growth ();
  if want "E7" then e7_cut_quality ();
  if want "E8" then e8_randomized_partition ();
  if want "E9" then e9_spanner ();
  if want "E10" then e10_lower_bound ();
  if want "E11" then e11_minor_free_testers ();
  if want "E12" then e12_emulation_cost ();
  if want "E13" then e13_partition_alternatives ();
  if want "E14" then e14_embedding_modes ();
  if want "A1" then a1_selection_rule ();
  if want "A2" then a2_corner_keys ();
  if want "A3" then a3_adaptive_schedule ();
  if want "P1" then p1_engine_wallclock ();
  if want "R1" then r1_fault_stability ();
  if want "M1" then m1_memory_substrate ();
  if want "C1" then c1_compiled_hot_path ();
  if want "T1" then t1_property_portfolio ();
  if want "L1" then l1_heartbeat_overhead ();
  if timings && want "B" then bechamel_section ();
  (match !json_path with
  | Some path ->
      let experiments =
        List.rev_map
          (fun (id, body) ->
            match body with
            | J.Obj fields -> J.Obj (("id", J.String id) :: fields)
            | other -> J.Obj [ ("id", J.String id); ("data", other) ])
          !sections
      in
      let doc = Report.bench_envelope ~quick ~jobs ~domains experiments in
      (try Report.write path doc
       with Sys_error msg ->
         Obs.Log.errorf "bench: cannot write %s: %s" path msg;
         exit 1);
      if path <> "-" then Printf.fprintf report_oc "\nwrote %s\n" path
  | None -> ());
  (* One provenance record per invocation.  The digest covers the
     simulated core of the report — every section except the bechamel
     timing section, with wall-clock-derived members stripped by key —
     so repeat runs of one configuration must digest identically
     regardless of --domains / --mode / machine load, and [planarmon
     history] flags any mismatch as determinism drift. *)
  (match ledger_path with
  | None -> ()
  | Some path ->
      let timing_key k =
        let lk = String.lowercase_ascii k in
        List.exists
          (fun s ->
            let n = String.length lk and m = String.length s in
            let rec at i = i + m <= n && (String.sub lk i m = s || at (i + 1)) in
            at 0)
          [ "seconds"; "wall"; "per_sec"; "speedup"; "overhead"; "publishes" ]
      in
      let rec strip = function
        | J.Obj fields ->
            J.Obj
              (List.filter_map
                 (fun (k, v) ->
                   if timing_key k then None else Some (k, strip v))
                 fields)
        | J.List xs -> J.List (List.map strip xs)
        | x -> x
      in
      let core =
        List.rev !sections
        |> List.filter (fun (id, _) -> id <> "B")
        |> List.map (fun (id, body) -> (id, strip body))
      in
      (* Simulated totals summed over the report, for the record's
         summary columns (each summand is engine-deterministic). *)
      let sum key =
        let total = ref 0 in
        let rec walk = function
          | J.Obj fields ->
              List.iter
                (fun (k, v) ->
                  (match v with
                  | J.Int i when k = key -> total := !total + i
                  | _ -> ());
                  walk v)
                fields
          | J.List xs -> List.iter walk xs
          | _ -> ()
        in
        walk (J.Obj core);
        !total
      in
      let ids =
        match only with None -> "all" | Some l -> String.concat "," l
      in
      let faults_str = if faults_spec = None then "none" else "on" in
      let record =
        {
          Report.Ledger.ts = Unix.gettimeofday ();
          tool = "bench";
          run_id = "bench:" ^ ids;
          fingerprint =
            Printf.sprintf "bench ids=%s quick=%b faults=%s" ids quick
              faults_str;
          property = "bench";
          config =
            [
              ("quick", string_of_bool quick);
              ("jobs", string_of_int jobs);
              ("domains", string_of_int domains);
              ("mode", Congest.Compiled.mode_to_string mode);
              ("faults", faults_str);
              ("only", ids);
            ];
          verdict = "completed";
          digest = Digest.to_hex (Digest.string (J.to_string (J.Obj core)));
          rounds = sum "rounds";
          nominal_rounds = sum "nominal_rounds";
          messages = sum "messages";
          total_bits = sum "total_bits";
          wall_s = Unix.gettimeofday () -. bench_t0;
          host = Unix.gethostname ();
        }
      in
      (try
         Report.Ledger.append ~path record;
         Obs.Log.infof "ledger record appended to %s" path
       with
      | Sys_error msg ->
          Obs.Log.errorf "bench: cannot append to --ledger %s: %s" path msg;
          exit 1
      | Unix.Unix_error (e, _, _) ->
          Obs.Log.errorf "bench: cannot append to --ledger %s: %s" path
            (Unix.error_message e);
          exit 1));
  Printf.fprintf report_oc "\nAll experiments completed.\n"
