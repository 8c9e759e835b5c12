(* Benchmark / experiment harness.

   The paper (PODC 2018) has no tables or figures — it is a theory paper —
   so each experiment below regenerates the quantitative content of one
   theorem or claim (see DESIGN.md's per-experiment index and EXPERIMENTS.md
   for paper-vs-measured).

   Usage:  bench [--quick|-q] [--jobs N] [--domains D] [--no-timings]
                 [--json PATH] [--only IDS] [--faults SPEC] [--trace PATH]
                 [--ledger PATH]

   Every experiment is one entry of the [experiments] registry at the end
   of this file (id, title, paper claim, [run]); the registry fixes the
   run order and the ids [--only] accepts.  A [run] prints its report
   and returns its JSON data; a table column is declared once and
   projected to both.  An invariant an experiment checks goes through
   [gate]: a violation stops the bench with exit 1 and
   "bench: <ID>: <what failed>".

   Independent (family, n, eps, seed) points inside each experiment are
   fanned across [--jobs] domains (default: the recommended domain count);
   results are reassembled in input order, so the report is identical to a
   serial run.  [--domains D] additionally shards node stepping *inside*
   each tester/partition run across D engine domains.  Every simulated
   statistic is identical for any D, only wall-clock changes.
   [--no-timings] skips the Bechamel section B and drops every clock or
   host reading (Report.field_class) from the printed report and the JSON
   alike.  What remains is simulated accounting plus a few members fixed
   by the invocation (the envelope's jobs/domains, M1's engine bytes,
   which grow with --domains), so two runs that differ only in --jobs or
   --domains pass [planarmon compare --no-wall].
   [--trace PATH] records a Congest.Trace of P1's sharded tester run and
   writes it as a binary .ctrace file for the planartrace analyzer.
   [--json PATH] additionally writes every experiment's data as a
   machine-readable document (schema "bench.planarity/v1"; '-' = stdout).
   [--faults SPEC] adds one extra user-chosen fault policy row to the R1
   verdict-stability experiment (see Congest.Faults.of_spec for the SPEC
   grammar); the built-in drop-probability sweep always runs.  [--ledger
   PATH] appends one runs.ledger/v1 record whose digest covers only the
   report's simulated members. *)

open Graphlib
module J = Report.Json
module PT = Tester.Planarity_tester

(* --- command line ---------------------------------------------------- *)

let quick = ref false
let jobs = ref (max 1 (Domain.recommended_domain_count () - 1))
let domains = ref 1
let timings = ref true
let json_path = ref None
let faults_spec = ref None
let trace_path = ref None
let only = ref None
let log_level = ref "info"
let log_json = ref None
let ledger_path = ref None

let () =
  let argv = Sys.argv in
  let usage () =
    prerr_endline
      "usage: bench [--quick|-q] [--jobs N] [--domains D] [--no-timings] \
       [--json PATH] [--faults SPEC] [--trace PATH] [--only IDS] \
       [--ledger PATH] [--log-level LEVEL] [--log-json PATH]";
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
      | "--only" when i + 1 < Array.length argv ->
          let ids =
            String.split_on_char ',' argv.(i + 1)
            |> List.map String.trim
            |> List.filter (fun s -> s <> "")
            |> List.map String.uppercase_ascii
          in
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
      | arg ->
          Printf.eprintf "bench: unexpected argument %S\n" arg;
          usage ()
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

(* Wall-clock one thunk, serially (never inside [parmap]: concurrent
   workers would distort the clock). *)
let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

(* Best-of-3 wall time (with the first run's result): a gate comparing
   two timings takes minima to keep scheduler noise out of the ratio. *)
let best_of_3 f =
  let r, s = time f in
  let best = ref s in
  for _ = 2 to 3 do
    let _, s' = time f in
    if s' < !best then best := s'
  done;
  (r, !best)

(* Interleaved minima: [reps] turns of one run of [a] then one of [b]
   (ABAB...), so a load shift on a shared host lands on both sides; each
   side keeps its first run's result and its best wall time. *)
let interleaved_best ~reps a b =
  (* Each timed run starts from a collected heap, so neither side pays
     for the other's garbage. *)
  let time f = Gc.full_major (); time f in
  let ra, sa = time a in
  let rb, sb = time b in
  let best_a = ref sa and best_b = ref sb in
  for _ = 2 to reps do
    best_a := Float.min !best_a (snd (time a));
    best_b := Float.min !best_b (snd (time b))
  done;
  ((ra, !best_a), (rb, !best_b))

(* --- tester runs ------------------------------------------------------ *)

(* Every planarity-tester run below goes through [planarity], so the
   invocation's --domains reaches all of them (P1 and L1 pin their own
   domain counts).  All statistics are identical for any setting of the
   flag; only wall-clock changes. *)
let planarity ?(domains = domains) ?partition ?embedding ?fast_forward
    ?faults ?trace ?heartbeat g ~eps ~seed =
  PT.run ~domains ?partition ?embedding ?fast_forward ?faults ?trace
    ?heartbeat g ~eps ~seed

(* The Corollary 16 testers on the same harness, with the same flags. *)
let harness ?partition property g ~eps ~seed =
  match property with
  | "bipartite" ->
      snd (Tester.Bipartite_tester.run ?partition ~domains ~seed g ~eps)
  | _ ->
      snd (Tester.Cycle_free_tester.run ?partition ~domains ~seed g ~eps)

let accepted (r : PT.report) = r.PT.verdict = PT.Accept

let verdict_name : Tester.Harness.verdict -> string = function
  | Tester.Harness.Accept -> "accept"
  | Tester.Harness.Reject _ -> "reject"
  | Tester.Harness.Degraded _ -> "degraded"

(* --- report helpers --------------------------------------------------- *)

(* --no-timings drops every clock and host reading from the text and the
   JSON alike; which members those are is Report.field_class's call. *)
let kept = function
  | Report.Clock | Report.Host -> timings
  | Report.Simulated | Report.Config -> true

let shown key = kept (Report.field_class key)
let out fmt = Printf.fprintf report_oc fmt

(* [line ?shows fmt] prints one line of prose; [shows] is the JSON member
   whose value the line prints, if any. *)
let line ?(shows = "") fmt =
  Printf.ksprintf (fun s -> if shown shows then out "%s\n" s) fmt

exception Gate of string

(* [gate ok fmt] fails the running experiment unless [ok]: bench stops
   with exit 1 and "bench: <ID>: <message>" on stderr. *)
let gate ok fmt =
  Printf.ksprintf (fun msg -> if not ok then raise (Gate msg)) fmt

(* [limit var] is the gate threshold environment variable [var] sets. *)
let limit var =
  match Sys.getenv_opt var with
  | None -> None
  | Some v -> (
      match float_of_string_opt v with
      | Some x -> Some x
      | None ->
          Printf.eprintf "bench: %s must be a number, got %S\n" var v;
          exit 2)

(* One table column, declared once and projected twice: to a printed
   cell ([text], left-aligned in [w] characters; [w < 0] = JSON only) and
   to the JSON member [key] ("a.b" nests the member under "a"; "" = text
   only).  --no-timings hides a column whose [key] it drops. *)
type 'r col = {
  head : string;
  w : int;
  key : string;
  json : 'r -> J.t;
  text : 'r -> string;
}

let cell w head key json text = { head; w; key; json; text }
let int w head key f =
  cell w head key (fun r -> J.Int (f r)) (fun r -> string_of_int (f r))
let str w head key f = cell w head key (fun r -> J.String (f r)) f

let float ?(suffix = "") w prec head key f =
  cell w head key
    (fun r -> J.Float (f r))
    (fun r -> Printf.sprintf "%.*f%s" prec (f r) suffix)

let bool w head key f =
  cell w head key (fun r -> J.Bool (f r)) (fun r -> string_of_bool (f r))

let data key json = cell (-1) "" key json (fun _ -> "")
let note w head text = cell w head "" (fun _ -> J.Null) text

(* An invariant's column: prints "ok" or flags the row. *)
let ok_col w head f =
  cell w head "ok" (fun r -> J.Bool (f r)) (fun r ->
      if f r then "ok" else "*** VIOLATION ***")

(* [record cols r] is row [r] as one JSON object, nesting dotted keys. *)
let record cols r =
  let rec add members path v =
    match (path, List.rev members) with
    | [ k ], _ -> members @ [ (k, v) ]
    | k :: rest, (k', J.Obj inner) :: before when k = k' ->
        List.rev before @ [ (k, J.Obj (add inner rest v)) ]
    | k :: rest, _ -> members @ [ (k, J.Obj (add [] rest v)) ]
    | [], _ -> members
  in
  J.Obj
    (List.fold_left
       (fun members c ->
         if c.key = "" then members
         else add members (String.split_on_char '.' c.key) (c.json r))
       [] cols)

(* [table cols rows] prints a header line (its titles stop at the last
   titled column) and one line per row, and returns the rows' JSON. *)
let table cols rows =
  let printed = List.filter (fun c -> c.w >= 0 && shown c.key) cols in
  let print cs text =
    out "%s\n"
      (String.concat " "
         (List.map (fun c -> Printf.sprintf "%-*s" c.w (text c)) cs))
  in
  let rec titled = function
    | [] -> []
    | c :: rest -> (
        match titled rest with [] when c.head = "" -> [] | t -> c :: t)
  in
  print (titled printed) (fun c -> c.head);
  List.iter (fun r -> print printed (fun c -> c.text r)) rows;
  J.List (List.map (record cols) rows)

(* ------------------------------------------------------------------ *)

(* The E1 graph families, which C1, P1 and L1 reuse: an apollonian
   triangulation on n nodes, or the largest square grid within n. *)
let e1_graph family n =
  if family = "apollonian" then
    Generators.apollonian (Random.State.make [| n |]) n
  else
    let side = int_of_float (sqrt (float_of_int n)) in
    Generators.grid side side

let e1_rounds_vs_n () =
  let sizes =
    if quick then [ 64; 128; 256; 512 ] else [ 64; 128; 256; 512; 1024; 2048 ]
  in
  let rows =
    parmap
      (fun (family, n) ->
        let g = e1_graph family n in
        (family, g, planarity g ~eps:0.3 ~seed:1))
      (List.concat_map
         (fun family -> List.map (fun n -> (family, n)) sizes)
         [ "apollonian"; "grid" ])
  in
  let per_lg g x =
    Printf.sprintf "%.1f"
      (float_of_int x /. (log (float_of_int (max (Graph.n g) 2)) /. log 2.0))
  in
  table
    [
      str 12 "family" "family" (fun (f, _, _) -> f);
      int 6 "n" "n" (fun (_, g, _) -> Graph.n g);
      int 7 "m" "m" (fun (_, g, _) -> Graph.m g);
      int 9 "rounds" "rounds" (fun (_, _, r) -> r.PT.rounds);
      int 10 "nominal" "nominal" (fun (_, _, r) -> r.PT.nominal_rounds);
      int 9 "fast-fwd" "fast_forwarded_rounds" (fun (_, _, r) ->
          r.PT.fast_forwarded_rounds);
      note 11 "rounds/lg n" (fun (_, g, r) -> per_lg g r.PT.rounds);
      note 14 "nominal/lg n" (fun (_, g, r) -> per_lg g r.PT.nominal_rounds);
    ]
    rows

let e2_rounds_vs_eps () =
  let n = if quick then 256 else 512 in
  let g = Generators.apollonian (Random.State.make [| 77 |]) n in
  let rows =
    parmap
      (fun eps -> (eps, planarity g ~eps ~seed:1))
      [ 0.5; 0.4; 0.3; 0.2; 0.15; 0.1 ]
  in
  let rows =
    table
      [
        float 7 2 "eps" "eps" fst;
        int 8 "phases" "phases" (fun (_, r) ->
            match r.PT.stage1 with
            | Some s1 -> List.length s1.Partition.Stage1.phases
            | None -> 0);
        int 9 "rounds" "rounds" (fun (_, r) -> r.PT.rounds);
        int 10 "nominal" "nominal" (fun (_, r) -> r.PT.nominal_rounds);
        int 7 "t_max" "t_max" (fun (eps, _) ->
            Partition.Stage1.phases_for ~eps ~alpha:3);
      ]
      rows
  in
  J.Obj [ ("n", J.Int n); ("rows", rows) ]

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
  let oks =
    parmap
      (fun (name, gen, seed) ->
        let g = gen (Random.State.make [| seed; 13 |]) in
        ( name,
          (not (Traversal.is_connected g))
          || accepted (planarity g ~eps:0.3 ~seed) ))
      (List.concat_map
         (fun (name, gen) -> List.init trials (fun i -> (name, gen, i + 1)))
         families)
  in
  let rows =
    List.map
      (fun (name, _) ->
        (name, List.length (List.filter (fun (f, ok) -> f = name && ok) oks)))
      families
  in
  let data =
    table
      [
        str 14 "family" "family" fst;
        int 8 "trials" "trials" (fun _ -> trials);
        int 9 "accepted" "accepted" snd;
        note 0 "" (fun (_, ok) ->
            if ok = trials then " (100%)" else " *** VIOLATION ***");
      ]
      rows
  in
  gate
    (List.for_all (fun (_, ok) -> ok = trials) rows)
    "a planar input was rejected (see the table)";
  data

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
  let outcomes =
    parmap
      (fun (name, gen, eps, seed) ->
        let g : Graph.t = gen (Random.State.make [| seed; 29 |]) in
        ( name,
          Planarity.Distance.eps_far_lower_bound g,
          not (accepted (planarity g ~eps ~seed)) ))
      (List.concat_map
         (fun (name, gen, eps) ->
           List.init trials (fun i -> (name, gen, eps, i + 1)))
         families)
  in
  let rows =
    List.map
      (fun (name, _, eps) ->
        let mine = List.filter (fun (f, _, _) -> f = name) outcomes in
        ( name,
          List.fold_left (fun acc (_, far, _) -> min acc far) 1.0 mine,
          eps,
          List.length (List.filter (fun (_, _, r) -> r) mine) ))
      families
  in
  table
    [
      str 22 "family" "family" (fun (f, _, _, _) -> f);
      int 8 "trials" "trials" (fun _ -> trials);
      float 10 3 "cert. far" "certified_far" (fun (_, far, _, _) -> far);
      float 9 2 "eps used" "eps" (fun (_, _, eps, _) -> eps);
      (* the last cell is printed unpadded under its padded title *)
      cell 0 "rejected " "rejected"
        (fun (_, _, _, r) -> J.Int r)
        (fun (_, _, _, r) -> Printf.sprintf "%d/%d" r trials);
    ]
    rows

module S1 = Partition.Stage1

(* Stage I reads its engine settings from the state it runs on. *)
let s1_state_with ~domains ~fast_forward g =
  let st = Partition.State.create g in
  st.Partition.State.domains <- domains;
  st.Partition.State.fast_forward <- fast_forward;
  st

(* A fresh state at this invocation's --domains. *)
let s1_state g = s1_state_with ~domains ~fast_forward:true g

let e5_weight_decay () =
  let n = if quick then 300 else 800 in
  let g = Generators.apollonian (Random.State.make [| 5 |]) n in
  let r = S1.run ~stop_when_met:false ~state:(s1_state g) g ~eps:0.35 in
  let live, idle =
    List.partition (fun (p : S1.phase_trace) -> p.S1.cut_before > 0) r.S1.phases
  in
  let ok (p : S1.phase_trace) =
    float_of_int p.S1.cut_after
    <= (35.0 /. 36.0) *. float_of_int p.S1.cut_before +. 1e-9
  in
  let phases =
    table
      [
        int 7 "phase" "phase" (fun p -> p.S1.phase);
        int 10 "cut in" "cut_before" (fun p -> p.S1.cut_before);
        int 10 "cut out" "cut_after" (fun p -> p.S1.cut_after);
        float 8 3 "ratio" "ratio" (fun p ->
            float_of_int p.S1.cut_after /. float_of_int (max 1 p.S1.cut_before));
        ok_col 14 "bound (35/36)" ok;
      ]
      live
  in
  if idle <> [] then
    line "(+ %d further scheduled phases with an already-empty cut)"
      (List.length idle);
  gate (List.for_all ok live) "a phase's cut decay broke the 35/36 bound";
  J.Obj
    [
      ("n", J.Int n);
      ("phases", phases);
      ("idle_phases", J.Int (List.length idle));
    ]

let e6_diameter_growth () =
  let side = if quick then 16 else 24 in
  let g = Generators.grid side side in
  let r = S1.run ~stop_when_met:false ~state:(s1_state g) g ~eps:0.4 in
  (* every phase with several parts, then the first single-part one *)
  let single = List.find_opt (fun p -> p.S1.parts = 1) r.S1.phases in
  let rows =
    List.filter
      (fun p ->
        p.S1.parts > 1 || match single with Some s -> s == p | None -> false)
      r.S1.phases
  in
  let bound (p : S1.phase_trace) = 4.0 ** float_of_int p.S1.phase in
  let ok p = float_of_int p.S1.max_diameter <= bound p in
  let data =
    table
      [
        int 7 "phase" "phase" (fun p -> p.S1.phase);
        int 10 "parts" "parts" (fun p -> p.S1.parts);
        int 12 "max diam" "max_diameter" (fun p -> p.S1.max_diameter);
        float 10 0 "4^i" "bound" bound;
        ok_col 8 "ok?" ok;
      ]
      rows
  in
  line "(remaining scheduled phases keep a single part; bound holds trivially)";
  gate (List.for_all ok rows) "a part diameter broke the 4^i bound";
  data

let e7_cut_quality () =
  let n = if quick then 400 else 1000 in
  let g = Generators.apollonian (Random.State.make [| 6 |]) n in
  let rows =
    parmap
      (fun eps -> (eps, S1.run ~state:(s1_state g) g ~eps))
      [ 0.5; 0.4; 0.3; 0.2; 0.1 ]
  in
  let target eps = eps *. float_of_int (Graph.m g) /. 2.0 in
  let cut r = Partition.State.cut_edges r.S1.state in
  let ok (eps, r) = float_of_int (cut r) <= target eps in
  let data =
    table
      [
        float 7 2 "eps" "eps" fst;
        int 9 "phases" "phases" (fun (_, r) -> List.length r.S1.phases);
        float 11 0 "target" "target" (fun (eps, _) -> target eps);
        int 9 "cut" "cut" (fun (_, r) -> cut r);
        ok_col 8 "ok?" ok;
      ]
      rows
  in
  gate (List.for_all ok rows) "a final cut missed its eps m / 2 target";
  J.Obj [ ("n", J.Int n); ("rows", data) ]

let e8_randomized_partition () =
  let side = if quick then 14 else 20 in
  let g = Generators.grid side side in
  let trials = if quick then 8 else 20 in
  let det =
    S1.run ~state:(s1_state g) g
      ~eps:(2.0 *. 0.5 *. float_of_int (Graph.n g) /. float_of_int (Graph.m g))
  in
  let det_cut = Partition.State.cut_edges det.S1.state in
  let deltas = [ 0.5; 0.25; 0.1; 0.02 ] in
  let outcomes =
    parmap
      (fun (delta, seed) ->
        (delta, Partition.Random_partition.run g ~eps:0.5 ~delta ~seed))
      (List.concat_map
         (fun delta -> List.init trials (fun i -> (delta, i + 1)))
         deltas)
  in
  let rows =
    List.map
      (fun delta ->
        let mine =
          List.filter_map
            (fun (d, r) -> if d = delta then Some r else None)
            outcomes
        in
        let sum f = List.fold_left (fun a r -> a + f r) 0 mine in
        let module R = Partition.Random_partition in
        ( delta,
          List.length
            (List.filter
               (fun r -> float_of_int r.R.cut <= 0.5 *. float_of_int (Graph.n g))
               mine),
          sum (fun r -> r.R.rounds) / trials,
          sum (fun r -> r.R.cut) / trials ))
      deltas
  in
  line "deterministic baseline: rounds=%d cut=%d\n" det.S1.rounds det_cut;
  let rows =
    table
      [
        float 8 2 "delta" "delta" (fun (d, _, _, _) -> d);
        int 8 "trials" "trials" (fun _ -> trials);
        cell 10 "success" "success"
          (fun (_, s, _, _) -> J.Int s)
          (fun (_, s, _, _) -> Printf.sprintf "%d/%-8d" s trials);
        int 12 "avg rounds" "avg_rounds" (fun (_, _, r, _) -> r);
        int 12 "avg cut" "avg_cut" (fun (_, _, _, c) -> c);
      ]
      rows
  in
  J.Obj
    [
      ( "baseline",
        J.Obj [ ("rounds", J.Int det.S1.rounds); ("cut", J.Int det_cut) ] );
      ("rows", rows);
    ]

let e9_spanner () =
  let n = if quick then 300 else 800 in
  let g = Generators.apollonian (Random.State.make [| 7 |]) n in
  let ours =
    List.map
      (fun eps ->
        let r = Tester.Spanner.build ~state:(s1_state g) g ~eps in
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
        let r =
          Tester.Elkin_neiman.build ~state:(s1_state g) g ~k ~delta:0.25
            ~seed:2
        in
        ( k,
          r.Tester.Elkin_neiman.edges,
          float_of_int n ** (1.0 +. (1.0 /. float_of_int k)) /. 0.25,
          Tester.Spanner.measured_stretch g r.Tester.Elkin_neiman.spanner,
          (2 * k) - 1 ))
      [ 2; 3; 5; 8; 12; 20 ]
  in
  (* [param] is the table's first column: eps for ours, k for EN *)
  let spanners label param size last =
    table
      [
        note 6 label (fun _ -> "");
        param;
        int 8 "edges" "edges" (fun (_, e, _, _, _) -> e);
        float 12 0 size "size_bound" (fun (_, _, b, _, _) -> b);
        int 14 "stretch (meas)" "stretch" (fun (_, _, _, s, _) -> s);
        int 14 last "stretch_bound" (fun (_, _, _, _, b) -> b);
      ]
  in
  line "input: apollonian n=%d m=%d\n" (Graph.n g) (Graph.m g);
  let ours =
    spanners "ours" (float 7 2 "eps" "eps" (fun (e, _, _, _, _) -> e))
      "(1+eps)n" "stretch bound" ours
  in
  line "";
  let en =
    spanners "EN"
      (int 7 "k" "k" (fun (k, _, _, _, _) -> k))
      "size bound" "2k-1" en
  in
  J.Obj
    [
      ("n", J.Int n);
      ("m", J.Int (Graph.m g));
      ("ours", ours);
      ("elkin_neiman", en);
    ]

let e10_lower_bound () =
  let sizes =
    if quick then [ 128; 256; 512 ] else [ 128; 256; 512; 1024; 2048 ]
  in
  let module C = Lowerbound.Construction in
  let rows =
    parmap
      (fun n ->
        let rng = Random.State.make [| n; 41 |] in
        let c = C.build rng ~n ~avg_degree:6.0 ~girth_factor:1.6 in
        (n, c, not (accepted (planarity c.C.graph ~eps:0.1 ~seed:1))))
      sizes
  in
  let data =
    table
      [
        int 6 "n" "n" (fun (n, _, _) -> n);
        int 7 "m" "m" (fun (_, c, _) -> Graph.m c.C.graph);
        int 9 "removed" "removed" (fun (_, c, _) -> c.C.removed);
        cell 7 "girth" "girth"
          (fun (_, c, _) ->
            match c.C.girth with Some girth -> J.Int girth | None -> J.Null)
          (fun (_, c, _) ->
            match c.C.girth with
            | Some girth -> string_of_int girth
            | None -> "inf");
        float 9 3 "eps-far" "eps_far" (fun (_, c, _) -> c.C.euler_far);
        int 13 "blind radius" "blind_radius" (fun (_, c, _) ->
            C.indistinguishability_radius c);
        bool 10 "rejected?" "rejected" (fun (_, _, r) -> r);
      ]
      rows
  in
  line
    "\n(blind radius r: any one-sided tester must accept if it runs < r \
     rounds,";
  line " because every r-ball is a tree; the radius grows with log n.)";
  data

let e11_minor_free_testers () =
  let rng = Random.State.make [| 51 |] in
  let n = if quick then 150 else 400 in
  let cases =
    [
      ("tree (cycle-free)", Generators.random_tree rng n, "cycle-free", true);
      ("grid (far from forest)", Generators.grid 14 14, "cycle-free", false);
      ("grid (bipartite)", Generators.grid 14 14, "bipartite", true);
      ("triangulation (far)", Generators.apollonian rng n, "bipartite", false);
    ]
  in
  let rows =
    parmap
      (fun (name, g, prop, expect) ->
        let test partition = harness ?partition prop g ~eps:0.3 ~seed:0 in
        ( name,
          prop,
          expect,
          test None,
          test (Some (Tester.Harness.Randomized 0.1)) ))
      cases
  in
  let accept (t : Tester.Harness.totals) =
    t.Tester.Harness.verdict = Tester.Harness.Accept
  in
  let data =
    table
      [
        str 26 "input" "input" (fun (name, _, _, _, _) -> name);
        str 14 "property" "property" (fun (_, prop, _, _, _) -> prop);
        bool 8 "expect" "expect" (fun (_, _, e, _, _) -> e);
        bool 9 "det" "det" (fun (_, _, _, d, _) -> accept d);
        bool 9 "rand" "rand" (fun (_, _, _, _, r) -> accept r);
        int 9 "rounds" "rounds" (fun (_, _, _, d, _) -> d.Tester.Harness.rounds);
      ]
      rows
  in
  (* The deterministic partition decides every row with certainty, and
     one-sided error holds for both partitions, so a holding input must
     be accepted by [rand] too.  Soundness of [rand] is only promised
     with probability 1 - delta, so it is not gated. *)
  List.iter
    (fun (name, prop, expect, det, rand) ->
      gate
        (accept det = expect && ((not expect) || accept rand))
        "%s on %s expected accept=%b, got det=%b rand=%b" prop name expect
        (accept det) (accept rand))
    rows;
  data

let e12_emulation_cost () =
  let n = if quick then 300 else 800 in
  let g = Generators.apollonian (Random.State.make [| 9 |]) n in
  let r = S1.run ~state:(s1_state g) g ~eps:0.3 in
  let stats = r.S1.state.Partition.State.stats in
  let module St = Congest.Stats in
  line "n=%d m=%d  phases=%d" (Graph.n g) (Graph.m g) (List.length r.S1.phases);
  line "simulated rounds      : %d" stats.St.rounds;
  line "bandwidth-charged     : %d" stats.St.charged_rounds;
  line "nominal (paper sched.): %d" r.S1.nominal_rounds;
  line "messages              : %d" stats.St.messages;
  line "max bits on one edge  : %d (bandwidth %d)" stats.St.max_edge_bits
    stats.St.bandwidth;
  line "oversized (edge,round): %d" stats.St.oversized;
  let phase_table =
    table
      [
        int 7 "phase" "phase" (fun p -> p.S1.phase);
        int 14 "fd super-rnds" "fd_super_rounds" (fun p -> p.S1.fd_super_rounds);
        int 12 "max diam" "max_diameter" (fun p -> p.S1.max_diameter);
        int 14 "tree depth" "max_tree_depth" (fun p -> p.S1.max_tree_depth);
      ]
      r.S1.phases
  in
  J.Obj
    [
      ("n", J.Int (Graph.n g));
      ("m", J.Int (Graph.m g));
      ("phases", J.Int (List.length r.S1.phases));
      ("stats", Congest.Telemetry.stats_json stats);
      ("nominal", J.Int r.S1.nominal_rounds);
      ("phase_table", phase_table);
    ]

let e13_partition_alternatives () =
  let sizes =
    if quick then [ 128; 256; 512 ] else [ 128; 256; 512; 1024; 2048 ]
  in
  let module En = Partition.En_partition in
  let rows =
    parmap
      (fun n ->
        let g = Generators.apollonian (Random.State.make [| n; 3 |]) n in
        let eps = 0.3 in
        ( n,
          planarity g ~eps ~seed:1,
          En.run g ~eps ~seed:1,
          planarity ~partition:PT.Exponential_shifts g ~eps ~seed:1 ))
      sizes
  in
  let bar = note 1 "|" (fun _ -> "|") in
  line "%-6s | %-22s | %-26s" "" "Stage I (Theorem 1)" "exp. shifts (EN-style)";
  let data =
    table
      [
        int 6 "n" "n" (fun (n, _, _, _) -> n);
        bar;
        int 9 "rounds" "stage1.rounds" (fun (_, s1, _, _) -> s1.PT.rounds);
        int 6 "cut" "stage1.cut" (fun (_, s1, _, _) ->
            match s1.PT.stage1 with
            | Some r -> Partition.State.cut_edges r.S1.state
            | None -> -1);
        bool 5 "okay" "stage1.ok" (fun (_, s1, _, _) -> accepted s1);
        bar;
        int 9 "rounds" "exp_shifts.rounds" (fun (_, _, _, en) -> en.PT.rounds);
        int 6 "cut" "exp_shifts.cut" (fun (_, _, p, _) -> p.En.cut);
        bool 5 "okay" "exp_shifts.ok" (fun (_, _, _, en) -> accepted en);
        int 6 "R" "exp_shifts.radius_bound" (fun (_, _, p, _) ->
            p.En.radius_bound);
      ]
      rows
  in
  gate
    (List.for_all (fun (_, s1, _, en) -> accepted s1 && accepted en) rows)
    "a planar input was rejected (see the table)";
  data

let e14_embedding_modes () =
  let sizes = if quick then [ 200; 400 ] else [ 200; 400; 800; 1600 ] in
  let embeddings = [ Tester.Stage2.Oracle; Tester.Stage2.Collect ] in
  let outcomes =
    parmap
      (fun (n, embedding) ->
        let g = Generators.apollonian (Random.State.make [| n; 7 |]) n in
        let r = planarity ~embedding g ~eps:0.3 ~seed:1 in
        let s1 = Option.get r.PT.stage1 in
        ( (n, embedding),
          ( r.PT.rounds,
            s1.S1.state.Partition.State.stats.Congest.Stats.charged_rounds ) ))
      (List.concat_map (fun n -> List.map (fun e -> (n, e)) embeddings) sizes)
  in
  let oracle n = List.assoc (n, Tester.Stage2.Oracle) outcomes in
  let collect n = List.assoc (n, Tester.Stage2.Collect) outcomes in
  line "%-6s %-24s %-24s" "" "oracle (GH cost)" "collect-and-embed";
  let data =
    table
      [
        int 6 "n" "n" Fun.id;
        int 11 "rounds" "oracle.rounds" (fun n -> fst (oracle n));
        int 12 "charged" "oracle.charged" (fun n -> snd (oracle n));
        int 11 "rounds" "collect.rounds" (fun n -> fst (collect n));
        int 12 "charged" "collect.charged" (fun n -> snd (collect n));
      ]
      sizes
  in
  line "(the gap in charged rounds grows with part size: that gap is the";
  line " value of the Ghaffari-Haeupler distributed embedding algorithm.)";
  data

(* ------------------------------------------------------------------ *)
(* Ablations of design choices (DESIGN.md)                             *)
(* ------------------------------------------------------------------ *)

let a1_selection_rule () =
  let n = if quick then 300 else 600 in
  let g = Generators.apollonian (Random.State.make [| 61 |]) n in
  let det = S1.run ~state:(s1_state g) g ~eps:0.4 in
  let avg_ratio phases =
    let rs =
      List.filter_map
        (fun (p : S1.phase_trace) ->
          if p.S1.cut_before = 0 then None
          else
            Some (float_of_int p.S1.cut_after /. float_of_int p.S1.cut_before))
        phases
    in
    List.fold_left ( +. ) 0.0 rs /. float_of_int (max 1 (List.length rs))
  in
  let det_phases = List.length det.S1.phases in
  let det_ratio = avg_ratio det.S1.phases in
  let trials = if quick then 3 else 6 in
  let outcomes =
    parmap
      (fun seed ->
        let module R = Partition.Random_partition in
        let r =
          R.run g
            ~eps:(0.4 *. float_of_int (Graph.m g) /. (2.0 *. float_of_int n))
            ~delta:0.1 ~seed
        in
        ( r.R.phases,
          (float_of_int r.R.cut /. float_of_int (Graph.m g))
          ** (1.0 /. float_of_int (max 1 r.R.phases)) ))
      (List.init trials (fun i -> i + 1))
  in
  let mean f =
    List.fold_left (fun a o -> a +. f o) 0.0 outcomes /. float_of_int trials
  in
  let rnd_phases = mean (fun (p, _) -> float_of_int p) in
  let rnd_ratio = mean snd in
  line "heaviest (Stage I)  : phases=%-3d avg per-phase cut ratio=%.3f"
    det_phases det_ratio;
  line
    "random (Theorem 4)  : phases=%.1f avg per-phase cut ratio=%.3f (matched \
     cut target, %d seeds)"
    rnd_phases rnd_ratio trials;
  line "(heavier selections contract more weight per phase, as the constants";
  line " 1/(12 alpha) vs 1/(64 alpha) in Claims 1 and 14 predict.)";
  J.Obj
    [
      ( "heaviest",
        J.Obj [ ("phases", J.Int det_phases); ("avg_ratio", J.Float det_ratio) ]
      );
      ( "random",
        J.Obj
          [
            ("phases", J.Float rnd_phases);
            ("avg_ratio", J.Float rnd_ratio);
            ("trials", J.Int trials);
          ] );
    ]

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
  let false_pos = List.length (List.filter fst outcomes) in
  let corner = List.length (List.filter snd outcomes) in
  let far =
    Generators.far_from_planar (Random.State.make [| 72 |]) ~n:100 ~eps:0.25
  in
  let far_vertex = Tester.Violation.count_violating_vertex_labels far in
  let far_corner = Tester.Violation.count_violating far in
  let far_dist = Planarity.Distance.euler_lower_bound far in
  line "planar triangulations with false 'violating edges':";
  line "  vertex-level labels : %d / %d  (one-sidedness broken)" false_pos trials;
  line "  corner keys         : %d / %d" corner trials;
  line "on far graphs both detect plenty (n=100, eps=0.25):";
  line "  vertex-level=%d corner=%d (certified distance >= %d)" far_vertex
    far_corner far_dist;
  J.Obj
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
    ]

(* The simulated totals two runs of one workload share whatever the
   executor, the domain count or fast-forwarding (fast-forwarded rounds
   excepted: the callers that hold fast-forward fixed compare those too). *)
let same_stage1 a b =
  let s r = r.S1.state.Partition.State.stats in
  a.S1.rejected = b.S1.rejected
  && a.S1.rounds = b.S1.rounds
  && a.S1.nominal_rounds = b.S1.nominal_rounds
  && (s a).Congest.Stats.charged_rounds = (s b).Congest.Stats.charged_rounds
  && (s a).Congest.Stats.messages = (s b).Congest.Stats.messages
  && (s a).Congest.Stats.total_bits = (s b).Congest.Stats.total_bits

let same_report (a : PT.report) (b : PT.report) =
  a.PT.rounds = b.PT.rounds
  && a.PT.nominal_rounds = b.PT.nominal_rounds
  && a.PT.messages = b.PT.messages
  && a.PT.total_bits = b.PT.total_bits

let a3_adaptive_schedule () =
  let n = if quick then 300 else 600 in
  let g = Generators.apollonian (Random.State.make [| 81 |]) n in
  let stats r = r.S1.state.Partition.State.stats in
  let rows =
    (* Timed serially: the wall-clock columns are the effect of
       quiescent-round fast-forwarding on the full fixed schedule. *)
    List.map
      (fun eps ->
        let full fast_forward () =
          S1.run ~stop_when_met:false
            ~state:(s1_state_with ~domains ~fast_forward g)
            g ~eps
        in
        let slow, slow_s = time (full false) in
        let f, fast_s = time (full true) in
        gate (same_stage1 slow f)
          "eps %.2f: fast-forward changed the full schedule's stats" eps;
        (eps, S1.run ~state:(s1_state g) g ~eps, f, slow_s, fast_s))
      [ 0.5; 0.3 ]
  in
  let schedule head key pick =
    cell 18 head key
      (fun row ->
        let r = pick row in
        J.Obj
          [
            ("phases", J.Int (List.length r.S1.phases));
            ("rounds", J.Int r.S1.rounds);
          ])
      (fun row ->
        let r = pick row in
        Printf.sprintf "%3d / %-12d" (List.length r.S1.phases) r.S1.rounds)
  in
  table
    [
      float 7 2 "eps" "eps" (fun (eps, _, _, _, _) -> eps);
      schedule "adaptive (ph/rnds)" "adaptive" (fun (_, a, _, _, _) -> a);
      schedule "full (ph/rnds)" "full" (fun (_, _, f, _, _) -> f);
      int 7 "t_max" "t_max" (fun (eps, _, _, _, _) ->
          S1.phases_for ~eps ~alpha:3);
      int 9 "fast-fwd" "fast_forwarded_rounds" (fun (_, _, f, _, _) ->
          (stats f).Congest.Stats.fast_forwarded_rounds);
      float 10 3 "no-ff(s)" "full_no_ff_seconds" (fun (_, _, _, s, _) -> s);
      float 10 3 "ff(s)" "full_ff_seconds" (fun (_, _, _, _, s) -> s);
      float ~suffix:"x" 10 1 "ff speedup" "ff_speedup" (fun (_, _, _, s, s') ->
          s /. max 1e-9 s');
    ]
    rows

(* ------------------------------------------------------------------ *)
(* Engine wall-clock: domain sharding and fast-forward                 *)
(* ------------------------------------------------------------------ *)

let p1_engine_wallclock () =
  let n = if quick then 512 else 2048 in
  let g = e1_graph "apollonian" n in
  (* Serial timing on purpose; [parmap] concurrency would distort it. *)
  let baseline, base_s =
    time (fun () ->
        planarity ~domains:1 ~fast_forward:false g ~eps:0.3 ~seed:1)
  in
  let runs =
    List.map
      (fun d ->
        let r, s = time (fun () -> planarity ~domains:d g ~eps:0.3 ~seed:1) in
        (* The determinism contract, checked on the spot: every statistic
           is independent of the domain count and of fast-forwarding. *)
        gate (same_report r baseline)
          "--domains %d changed the simulated totals" d;
        (d, r, s))
      [ 1; 2; 4 ]
  in
  let cores = Domain.recommended_domain_count () in
  line "input: apollonian n=%d" n;
  line ~shows:"host_cores" "host cores available: %d" cores;
  line ~shows:"baseline_no_ff_seconds"
    "baseline (domains=1, fast-forward off): %.3fs\n" base_s;
  let runs =
    table
      [
        int 9 "domains" "domains" (fun (d, _, _) -> d);
        float 10 3 "seconds" "seconds" (fun (_, _, s) -> s);
        float ~suffix:"x" 18 2 "speedup vs no-ff" "speedup_vs_no_ff"
          (fun (_, _, s) -> base_s /. max 1e-9 s);
        int 12 "fast-fwd rounds" "fast_forwarded_rounds" (fun (_, r, _) ->
            r.PT.fast_forwarded_rounds);
        data "rounds" (fun (_, r, _) -> J.Int r.PT.rounds);
      ]
      runs
  in
  Option.iter
    (fun path ->
      (* One extra traced run of the same point: the recording hooks stay
         out of the timed runs above, so [--trace] cannot distort them. *)
      let tr =
        Congest.Trace.create (Congest.Telemetry.create ~series:false ())
      in
      ignore (planarity ~trace:tr g ~eps:0.3 ~seed:1);
      Congest.Trace.finish tr;
      (try Report.Ctrace.write path tr
       with Sys_error msg ->
         Obs.Log.errorf "bench: cannot write trace %s: %s" path msg;
         exit 1);
      line "trace written to %s (planartrace info/edges/phases/export)" path)
    trace_path;
  if cores < 4 then
    line ~shows:"host_cores"
      "(host exposes %d core(s): domain sharding cannot yield wall-clock \
       gains here;\n\
      \ the speedups above come from quiescent-round fast-forwarding, which \
       is\n\
      \ exact — every statistic matches the baseline run.)"
      cores;
  J.Obj
    [
      ("family", J.String "apollonian");
      ("n", J.Int n);
      ("host_cores", J.Int cores);
      ("baseline_no_ff_seconds", J.Float base_s);
      ("runs", runs);
    ]

(* ------------------------------------------------------------------ *)
(* Fault injection: verdict stability                                  *)
(* ------------------------------------------------------------------ *)

let r1_fault_stability () =
  let n = if quick then 96 else 200 in
  let trials = if quick then 3 else 5 in
  let drops =
    if quick then [ 0.0; 0.01; 0.05; 0.2 ] else [ 0.0; 0.002; 0.01; 0.05; 0.2 ]
  in
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
          fun seed ->
            if drop = 0.0 then None
            else Some (Congest.Faults.make ~seed ~drop ()) ))
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
        let r =
          planarity ?faults:(pol seed) (gen seed)
            ~eps:(if planar then 0.3 else 0.15)
            ~seed
        in
        (fname, pname, seed, planar, r))
      points
  in
  (* The invariant under test: faults never manufacture rejection
     evidence on a planar input (one-sided error is preserved by
     construction — Reject downgrades to Degraded whenever a fault
     fired). *)
  List.iter
    (fun (fname, pname, seed, planar, r) ->
      gate
        (not (planar && verdict_name r.PT.verdict = "reject"))
        "planar input rejected under faults (%s, %s, seed %d)" fname pname
        seed)
    outcomes;
  let rows =
    List.concat_map
      (fun (fname, _, planar) ->
        List.map
          (fun (pname, _) ->
            ( fname,
              planar,
              pname,
              List.filter_map
                (fun (f, p, _, _, r) ->
                  if f = fname && p = pname then Some r else None)
                outcomes ))
          policies)
      families
  in
  let count v (_, _, _, mine) =
    List.length (List.filter (fun r -> verdict_name r.PT.verdict = v) mine)
  in
  line "n=%d, %d fault seeds per point; verdict counts per policy\n" n trials;
  let rows =
    table
      [
        str 22 "family" "family" (fun (f, _, _, _) -> f);
        data "planar" (fun (_, planar, _, _) -> J.Bool planar);
        str 22 "policy" "policy" (fun (_, _, p, _) -> p);
        int 8 "accept" "accept" (count "accept");
        int 10 "degraded" "degraded" (count "degraded");
        int 8 "reject" "reject" (count "reject");
        int 12 "avg dropped" "avg_dropped" (fun (_, _, _, mine) ->
            List.fold_left (fun a r -> a + r.PT.dropped) 0 mine
            / max 1 (List.length mine));
        data "one_sided_ok" (fun ((_, planar, _, _) as row) ->
            J.Bool (not (planar && count "reject" row > 0)));
      ]
      rows
  in
  J.Obj [ ("n", J.Int n); ("trials", J.Int trials); ("rows", rows) ]

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
      mk "stage1_n150" (fun () ->
          let state =
            s1_state_with ~domains:1 ~fast_forward:true g_small
          in
          ignore (S1.run ~state g_small ~eps:0.3));
      mk "full_tester_planar_n150" (fun () ->
          ignore (PT.run g_small ~eps:0.3 ~seed:1));
      mk "full_tester_far_n150" (fun () ->
          ignore (PT.run far ~eps:0.2 ~seed:1));
      mk "spanner_n150" (fun () ->
          ignore
            (Tester.Spanner.build ~state:(s1_state g_small) g_small ~eps:0.3));
      mk "elkin_neiman_n150_k4" (fun () ->
          ignore
            (Tester.Elkin_neiman.build ~state:(s1_state g_small) g_small ~k:4
               ~delta:0.2 ~seed:1));
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
  let estimates =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
    |> List.sort compare
    |> List.filter_map (fun (name, ols) ->
           match Analyze.OLS.estimates ols with
           | Some [ est ] -> Some (name, est)
           | _ -> None)
  in
  table
    [
      str 40 "benchmark" "name" fst;
      float 16 0 "ns/run (ols)" "ns_per_run" snd;
    ]
    estimates

(* ------------------------------------------------------------------ *)

(* M1: the million-node memory substrate.  The resident cost of a tester
   run splits into the CSR graph (8 B/node + 32 B/edge), the engine
   pool's per-edge accounting (16 B/edge fault-free), and growable slabs
   sized by peak per-round traffic, not by the graph.  All byte figures
   are analytic ({!Graph.storage_bytes}, {!Engine.footprint}); the node
   and slab figures include one arena per engine domain, so they follow
   --domains.  Serial on purpose — parmap concurrency would distort the
   timings. *)
let m1_memory_substrate () =
  let sizes = if quick then [ 2_500; 10_000 ] else [ 65_536; 1_000_000 ] in
  let module Eng = Partition.State.Eng in
  let rows =
    List.map
      (fun (family, n) ->
        let g =
          if family = "grid" then
            let r, c = Generators.grid_dims n in
            Generators.grid r c
          else
            Generators.far_from_planar
              (Random.State.make [| 97; n |])
              ~n ~eps:0.1
        in
        let r, wall = time (fun () -> planarity g ~eps:0.3 ~seed:1) in
        let s1 = Option.get r.PT.stage1 in
        (family, g, r, wall, Eng.footprint s1.S1.state.Partition.State.pool))
      (List.concat_map (fun n -> [ ("grid", n); ("far", n) ]) sizes)
  in
  let node (_, g, _, _, fp) = fst (Graph.storage_bytes g) + fp.Eng.node_bytes in
  let edge (_, g, _, _, fp) = snd (Graph.storage_bytes g) + fp.Eng.edge_bytes in
  let slab (_, _, _, _, fp) = fp.Eng.slab_bytes in
  let per bytes count ((_, g, _, _, _) as row) =
    float_of_int (bytes row) /. float_of_int (max 1 (count g))
  in
  table
    [
      str 8 "family" "family" (fun (f, _, _, _, _) -> f);
      int 9 "n" "n" (fun (_, g, _, _, _) -> Graph.n g);
      int 9 "m" "m" (fun (_, g, _, _, _) -> Graph.m g);
      data "node_bytes" (fun row -> J.Int (node row));
      data "edge_bytes" (fun row -> J.Int (edge row));
      float 8 1 "B/node" "bytes_per_node" (per node Graph.n);
      float 8 1 "B/edge" "bytes_per_edge" (per edge Graph.m);
      cell 10 "slab(MB)" "slab_bytes"
        (fun row -> J.Int (slab row))
        (fun row ->
          Printf.sprintf "%.2f" (float_of_int (slab row) /. 1.048576e6));
      float 9 2 "wall(s)" "wall_seconds" (fun (_, _, _, w, _) -> w);
      int 9 "rounds" "rounds" (fun (_, _, r, _, _) -> r.PT.rounds);
      str 8 "verdict" "verdict" (fun (_, _, r, _, _) ->
          verdict_name r.PT.verdict);
    ]
    rows

(* ------------------------------------------------------------------ *)
(* Kernel stepping vs per-node fibers                                  *)
(* ------------------------------------------------------------------ *)

(* C1 gates what stepping kernels on the engine's own stack was built to
   remove: the per-node fiber.  One kernel (a flood, [Probe]) runs on
   the E1 graph families at the largest E1 size, fast-forward off, two
   ways: stepped directly by [Engine.Make.run_kernel], and as one fiber
   node program per node through [Engine.Make.run] that is resumed every
   round it is parked — how kernels once ran.  Both give the same stats
   (gated on the spot).  C1_MIN_SPEEDUP=<x> turns the smaller of the two
   speedups into a hard gate (exit 1 below x); unset, C1 only reports.
   With fast-forward off the engine steps only a round's due nodes, so a
   merely parked node costs it nothing, against ~100 ns per fiber
   resume. *)

module Probe_msg = struct
  type t = int

  let bits _ = 32
end

module Probe_eng = Congest.Engine.Make (Probe_msg)

(* [Probe_eng] as a NET whose inbox is the list [sync] returns, for the
   fiber-driven runs. *)
module Probe_list = struct
  include Probe_eng

  type inbox = (int * int) list

  let inbox_is_empty = function [] -> true | _ :: _ -> false
  let inbox_sender _ l = fst (List.hd l)
  let inbox_msg _ l = snd (List.hd l)
  let inbox_next _ l = List.tl l
end

(* Node 0 floods at start-up, every node forwards the first message it
   hears, and every node halts at round [horizon], parked in between:
   with fast-forward off nearly every node-round steps a parked node. *)
module Probe (N : Congest.Compiled.NET with type msg = int) = struct
  let kernel ~horizon n =
    let heard = Bytes.make n '\000' in
    let start ctx v =
      if v = 0 then begin
        Bytes.set heard 0 '\001';
        N.broadcast ctx 0
      end;
      Congest.Compiled.Park horizon
    and resume ctx v inbox =
      if (not (N.inbox_is_empty inbox)) && Bytes.get heard v = '\000' then begin
        Bytes.set heard v '\001';
        N.broadcast ctx (N.round ctx)
      end;
      let left = horizon - N.round ctx in
      if left > 0 then Congest.Compiled.Park left else Congest.Compiled.Halt
    in
    (start, resume)
end

(* A kernel as a node program that syncs every round while parked,
   resuming the kernel on an arrival or at its deadline: with
   fast-forward off, the same stats as stepping the kernel directly, at
   one fiber resume per live node per round. *)
let program_of_kernel ~start ~resume c =
  let v = Probe_eng.my_id c in
  let rec park k =
    match Probe_eng.sync c with
    | [] when k > 1 -> park (k - 1)
    | inbox -> step (resume c v inbox)
  and step = function
    | Congest.Compiled.Halt -> ()
    | Congest.Compiled.Park k -> park (max 1 k)
  in
  step (start c v)

let c1_kernel_stepping () =
  let n = if quick then 512 else 2048 in
  let horizon = 1024 in
  let point family =
    let g = e1_graph family n in
    let engine () =
      let module K = Probe (Probe_eng) in
      let start, resume = K.kernel ~horizon (Graph.n g) in
      let r =
        Probe_eng.run_kernel ~fast_forward:false g ~start ~resume
      in
      (r.Probe_eng.stats, r.Probe_eng.completed)
    and fibers () =
      let module K = Probe (Probe_list) in
      let start, resume = K.kernel ~horizon (Graph.n g) in
      let r =
        Probe_eng.run ~fast_forward:false g
          (program_of_kernel ~start ~resume)
      in
      (r.Probe_eng.stats, r.Probe_eng.completed)
    in
    let (sf, _), tf = best_of_3 fibers in
    let (se, ce), te = best_of_3 engine in
    gate ce "%s: the flood did not complete" family;
    gate (sf = se) "%s: fiber-driven and direct flood stats differ" family;
    (family, g, se, (tf, te))
  in
  let rows = List.map point [ "apollonian"; "grid" ] in
  let speedup (_, _, _, (tf, te)) = tf /. max 1e-9 te in
  line
    "kernel stepping vs per-node fibers: a flood halting at round %d, \
     fast-forward off, E1 graph families at n=%d"
    horizon n;
  let data =
    table
      [
        str 12 "family" "family" (fun (f, _, _, _) -> f);
        data "n" (fun (_, g, _, _) -> J.Int (Graph.n g));
        data "m" (fun (_, g, _, _) -> J.Int (Graph.m g));
        int 8 "rounds" "rounds" (fun (_, _, s, _) -> s.Congest.Stats.rounds);
        int 10 "messages" "messages" (fun (_, _, s, _) ->
            s.Congest.Stats.messages);
        cell 16 "stats identical" "stats_identical"
          (fun _ -> J.Bool true)
          (fun _ -> "yes");
        float 10 3 "fibers(s)" "fibers_seconds" (fun (_, _, _, (tf, _)) -> tf);
        float 10 3 "engine(s)" "engine_seconds" (fun (_, _, _, (_, te)) -> te);
        float ~suffix:"x" 9 1 "speedup" "speedup" speedup;
      ]
      rows
  in
  Option.iter
    (fun min_speedup ->
      let x = List.fold_left (fun m row -> min m (speedup row)) infinity rows in
      gate (x >= min_speedup)
        "kernel-over-fiber speedup %.2fx below required %.2fx" x min_speedup;
      line ~shows:"speedup" "C1 gate: kernel-over-fiber speedup %.2fx >= %.2fx"
        x min_speedup)
    (limit "C1_MIN_SPEEDUP");
  data

(* T1: the property portfolio on the shared Stage I harness.  One
   holding and one certified-far instance per property; the far
   instances are constructed so rejection is deterministic (planted
   violations outnumber eps*m/2, the most edges Stage I's cut can
   remove), so every verdict below is a hard expectation, not a
   statistical one. *)
type t1_row = {
  property : string;
  instance : string;
  g : Graph.t;
  expect : bool;
  verdict : string;
  rounds : int;
  nominal : int;
  messages : int;
  bits : int;
}

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
  let rows =
    parmap
      (fun (property, instance, g, expect) ->
        let row v rounds nominal messages bits =
          { property; instance; g; expect; verdict = verdict_name v; rounds;
            nominal; messages; bits }
        in
        if property = "planarity" then
          let r = planarity g ~eps ~seed:1 in
          row r.PT.verdict r.PT.rounds r.PT.nominal_rounds r.PT.messages
            r.PT.total_bits
        else
          let t = harness property g ~eps ~seed:1 in
          Tester.Harness.(
            row t.verdict t.rounds t.nominal_rounds t.messages t.total_bits))
      cases
  in
  let expected r = if r.expect then "accept" else "reject" in
  let data =
    table
      [
        str 12 "property" "property" (fun r -> r.property);
        str 20 "instance" "instance" (fun r -> r.instance);
        int 6 "n" "n" (fun r -> Graph.n r.g);
        int 6 "m" "m" (fun r -> Graph.m r.g);
        cell 8 "expect" "expect_accept" (fun r -> J.Bool r.expect) expected;
        str 9 "verdict" "verdict" (fun r -> r.verdict);
        int 9 "rounds" "rounds" (fun r -> r.rounds);
        int 12 "nominal" "nominal_rounds" (fun r -> r.nominal);
        int 10 "messages" "messages" (fun r -> r.messages);
        data "total_bits" (fun r -> J.Int r.bits);
      ]
      rows
  in
  List.iter
    (fun r ->
      gate (r.verdict = expected r) "%s on %s expected %s, got %s" r.property
        r.instance (expected r) r.verdict)
    rows;
  data

(* ------------------------------------------------------------------ *)

(* L1: live-observability overhead.  The heartbeat contract is that
   attaching one changes nothing in the simulated stream and costs a
   negligible slice of wall-clock: publication is host-side, runs at
   quiescent round boundaries only, and its cadence is bounded (every
   8192 charged rounds and at most ~1/s).  L1 measures the grid
   workload with and without a heartbeat publishing to a scratch file
   (bare and heartbeat runs interleaved, the best of 20 wall times each
   way) and gates on the spot that the simulated totals are identical.

   L1_MAX_OVERHEAD_PCT=<x> turns the wall overhead into a hard gate
   (exit 1 above x percent) — the CI live leg sets it to 2; unset, L1
   only reports (the ratio of two sub-second timings is noisy on a
   loaded machine). *)
let l1_heartbeat_overhead () =
  let g = e1_graph "grid" (if quick then 512 else 2048) in
  let eps = 0.2 in
  let hb_file = Filename.temp_file "planar-l1-hb" ".json" in
  let publishes = ref 0 in
  let run_once hb () = planarity ~domains:1 g ~eps ~seed:1 ?heartbeat:(hb ()) in
  ignore (run_once (fun () -> None) ()) (* warm the allocator *);
  let (r_off, s_off), (r_on, s_on) =
    interleaved_best ~reps:20
      (run_once (fun () -> None))
      (run_once (fun () ->
           (* Fresh heartbeat per rep: seq / cadence state is per-run. *)
           publishes := 0;
           Some
             (Obs.Heartbeat.create ~path:hb_file
                ~on_publish:(fun _ -> incr publishes)
                ~run_id:"bench:L1" ~fingerprint:"bench:L1"
                ~property:"planarity" ())))
  in
  (try Sys.remove hb_file with Sys_error _ -> ());
  (* The tentpole contract, checked on the spot: a heartbeat is
     invisible to the simulated accounting. *)
  gate
    (same_report r_off r_on
    && r_off.PT.fast_forwarded_rounds = r_on.PT.fast_forwarded_rounds)
    "a heartbeat changed the simulated totals";
  let overhead_pct =
    if s_off > 0.0 then 100.0 *. (s_on -. s_off) /. s_off else 0.0
  in
  line "input: grid n=%d, eps=%g; heartbeat at default cadence to a scratch file"
    (Graph.n g) eps;
  line "rounds=%d publishes/run=%d stats identical" r_off.PT.rounds !publishes;
  line ~shows:"overhead_pct" "bare %.4fs, heartbeat %.4fs: overhead %.2f%%"
    s_off s_on overhead_pct;
  Option.iter
    (fun max_pct ->
      gate (overhead_pct <= max_pct)
        "heartbeat overhead %.2f%% above allowed %.2f%%" overhead_pct max_pct;
      line ~shows:"overhead_pct" "L1 gate: heartbeat overhead %.2f%% <= %.2f%%"
        overhead_pct max_pct)
    (limit "L1_MAX_OVERHEAD_PCT");
  J.Obj
    [
      ("family", J.String "grid");
      ("n", J.Int (Graph.n g));
      ("m", J.Int (Graph.m g));
      ("eps", J.Float eps);
      ("rounds", J.Int r_off.PT.rounds);
      ("messages", J.Int r_off.PT.messages);
      ("publishes_per_run", J.Int !publishes);
      ("stats_identical", J.Bool true);
      ("bare_seconds", J.Float s_off);
      ("heartbeat_seconds", J.Float s_on);
      ("overhead_pct", J.Float overhead_pct);
    ]

(* ------------------------------------------------------------------ *)
(* The registry: every experiment, in run order                        *)
(* ------------------------------------------------------------------ *)

type experiment = {
  id : string;
  title : string;
  claim : string;
  wall_only : bool;
      (* every member is a host timing: --no-timings skips the
         experiment and the ledger digest leaves it out *)
  run : unit -> J.t;
}

let exp ?(wall_only = false) id title claim run =
  { id; title; claim; wall_only; run }

let experiments =
  [
    exp "E1" "tester rounds vs n (planar inputs)"
      "Theorem 1: O(log n * poly(1/eps)) rounds" e1_rounds_vs_n;
    exp "E2" "tester rounds vs eps (fixed n)"
      "Theorem 1: poly(1/eps) dependence via t = O(log 1/eps) phases and 4^i \
       diameters"
      e2_rounds_vs_eps;
    exp "E3" "completeness (one-sided error)"
      "Theorem 1: planar => every node outputs accept, always" e3_completeness;
    exp "E4" "soundness on certified eps-far inputs"
      "Theorem 1: eps-far => some node rejects w.p. 1 - 1/poly(n)" e4_soundness;
    exp "E5" "per-phase cut-weight decay"
      "Claim 1: w(G_{i+1}) <= (1 - 1/(12 alpha)) w(G_i) = 0.9722 w(G_i)"
      e5_weight_decay;
    exp "E6" "part diameters across phases"
      "Claim 4: parts of P_i are connected with diameter <= 4^i"
      e6_diameter_growth;
    exp "E7" "final cut vs target"
      "Claim 3 / Theorem 3: planar inputs always reach cut <= eps m / 2"
      e7_cut_quality;
    exp "E8" "randomized partition (Theorem 4)"
      "O(poly(1/eps)(log(1/delta) + log* n)) rounds; cut <= eps n w.p. 1 - \
       delta"
      e8_randomized_partition;
    exp "E9" "spanners: Corollary 17 vs Elkin-Neiman baseline"
      "Cor 17: (1 + O(eps)) n edges, poly(1/eps) stretch; EN: (2k-1)-spanner, \
       O(n^{1+1/k}/delta) edges"
      e9_spanner;
    exp "E10" "the Omega(log n) lower-bound construction"
      "Theorem 2 (Claims 11-12): constant-far graphs with girth Omega(log n) \
       force Omega(log n) rounds"
      e10_lower_bound;
    exp "E11" "cycle-freeness and bipartiteness testers (minor-free promise)"
      "Corollary 16: O(poly(1/eps) log n) deterministic / \
       O(poly(1/eps)(log 1/delta + log* n)) randomized"
      e11_minor_free_testers;
    exp "E12" "emulation cost accounting"
      "Section 2.1.5: a super-round costs O(max part diameter) G-rounds; \
       messages stay O(log n) bits"
      e12_emulation_cost;
    exp "E13" "Stage I vs the exponential-shift partition (Section 1.1 remark)"
      "replacing Stage I with the adapted Elkin-Neiman partition gives \
       O(log^2 n poly(1/eps)) rounds"
      e13_partition_alternatives;
    exp "E14"
      "what Ghaffari-Haeupler saves: oracle-charged vs collect-and-embed"
      "GH embeds in O(D + min(log n, D)) rounds; shipping each part to its \
       root costs Omega(m_j log n / B)"
      e14_embedding_modes;
    exp "A1" "ablation: heaviest-edge vs random weighted selection"
      "Sub-step 1 (deterministic, Claim 1 rate 1/36) vs Section 4 selection \
       (Claim 14 rate 1/192)"
      a1_selection_rule;
    exp "A2" "ablation: vertex-level labels vs corner keys (Definition 7)"
      "Claim 10 as stated fails with vertex-level labels; the corner \
       refinement repairs it"
      a2_corner_keys;
    exp "A3" "ablation: adaptive early stop vs the full fixed schedule"
      "stop_when_met skips provably idle phases; the worst-case analysis \
       needs the full t = O(log 1/eps); fast-forward makes the idle tail \
       O(1) per quiet span"
      a3_adaptive_schedule;
    exp "P1" "engine wall-clock: E1 tester under --domains and fast-forward"
      "identical stats for any domain count; wall-clock gains come from \
       sharded stepping (needs real cores) and O(1) quiescent-round skips"
      p1_engine_wallclock;
    exp "R1" "verdict stability vs fault rate"
      "one-sided error survives benign faults: a planar input accepts or \
       degrades, never rejects; an eps-far input's rejection evidence \
       degrades to an explicit 'no verdict' once faults interfere"
      r1_fault_stability;
    exp "M1" "memory substrate: bytes per node / edge at scale"
      "engineering target, not a paper claim: flat per-edge state keeps the \
       substrate at <= 64 bytes/edge so 10^6..10^7-node runs fit in RAM"
      m1_memory_substrate;
    exp "C1" "kernel stepping vs per-node fibers"
      "every protocol is a kernel stepped on the engine's own stack: \
       byte-identical stats, at >=10x the per-round throughput of \
       per-node fibers (ff off = every simulated round executed \
       individually)"
      c1_kernel_stepping;
    exp "T1" "property portfolio on the shared Stage I harness"
      "Section 1 framework: one Stage I partition serves planarity, \
       bipartiteness and cycle-freeness Stage II checks (one-sided error)"
      t1_property_portfolio;
    exp "L1" "heartbeat overhead: live telemetry vs bare run"
      "host-side heartbeat publication (8192-round / 1s cadence) leaves the \
       simulated stream byte-identical and costs < 2% wall-clock"
      l1_heartbeat_overhead;
    exp ~wall_only:true "B" "wall-clock micro-benchmarks (Bechamel)"
      "simulator throughput; not a paper claim" bechamel_section;
  ]

(* ------------------------------------------------------------------ *)

let () =
  let ids = List.map (fun e -> e.id) experiments in
  Option.iter
    (List.iter (fun id ->
         if not (List.mem id ids) then begin
           Printf.eprintf "bench: --only: unknown experiment %S (known: %s)\n"
             id (String.concat "," ids);
           exit 2
         end))
    only;
  let sections =
    List.filter_map
      (fun e ->
        let wanted =
          match only with None -> true | Some l -> List.mem e.id l
        in
        if (not wanted) || (e.wall_only && not timings) then None
        else begin
          let rule = String.make 64 '=' in
          out "\n%s\n%s — %s\npaper: %s\n%s\n" rule e.id e.title e.claim rule;
          match e.run () with
          | data -> Some (e, data)
          | exception Gate msg ->
              Printf.eprintf "bench: %s: %s\n" e.id msg;
              exit 1
        end)
      experiments
  in
  (match !json_path with
  | Some path ->
      let doc =
        Report.bench_envelope ~quick ~jobs ~domains
          (List.map
             (fun (e, data) ->
               J.Obj
                 [
                   ("id", J.String e.id);
                   ("title", J.String e.title);
                   ("claim", J.String e.claim);
                   ("data", Report.keep_fields kept data);
                 ])
             sections)
      in
      (try Report.write path doc
       with Sys_error msg ->
         Obs.Log.errorf "bench: cannot write %s: %s" path msg;
         exit 1);
      if path <> "-" then out "\nwrote %s\n" path
  | None -> ());
  (* One provenance record per invocation.  The digest covers the
     simulated members of the report (Report.field_class), so repeat
     runs of one configuration must digest identically regardless of
     --domains / host / machine load, and [planarmon history]
     flags any mismatch as determinism drift. *)
  (match ledger_path with
  | None -> ()
  | Some path ->
      let core =
        J.Obj
          (List.filter_map
             (fun (e, data) ->
               if e.wall_only then None
               else
                 Some
                   (e.id, Report.keep_fields (( = ) Report.Simulated) data))
             sections)
      in
      (* Simulated totals summed over the report, for the record's
         summary columns (each summand is engine-deterministic). *)
      let sum key =
        let rec walk = function
          | J.Obj fields ->
              List.fold_left
                (fun acc (k, v) ->
                  acc + walk v
                  + match v with J.Int i when k = key -> i | _ -> 0)
                0 fields
          | J.List xs -> List.fold_left (fun acc x -> acc + walk x) 0 xs
          | _ -> 0
        in
        walk core
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
              ("faults", faults_str);
              ("only", ids);
            ];
          verdict = "completed";
          digest = Digest.to_hex (Digest.string (J.to_string core));
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
  out "\nAll experiments completed.\n"
