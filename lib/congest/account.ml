open Graphlib

(* Run-level metrics, recorded once per run by [finish] — never on the
   per-round hot path.  Everything marked stable is a pure function of
   (program, graph, seed, faults): the same numbers for any domain count
   and for fast-forward on/off. *)
let m_runs =
  Obs.Metrics.counter ~help:"Engine runs completed" "congest_runs"

let m_incomplete_runs =
  Obs.Metrics.counter
    ~help:"Engine runs that stopped early (max_rounds, crash culls or \
           recorded node failures)"
    "congest_incomplete_runs"

let m_rounds =
  Obs.Metrics.counter ~help:"Simulated rounds executed" "congest_rounds"

let m_charged_rounds =
  Obs.Metrics.counter
    ~help:"Rounds charged to the CONGEST budget (incl. fragmentation frames)"
    "congest_charged_rounds"

let m_messages =
  Obs.Metrics.counter ~help:"Messages delivered" "congest_messages"

let m_bits = Obs.Metrics.counter ~help:"Total bits delivered" "congest_bits"

let m_oversized =
  Obs.Metrics.counter
    ~help:"Edge-rounds exceeding the bandwidth (fragmented into frames)"
    "congest_oversized_edges"

let m_ff_rounds =
  (* Not stable: the whole point of this counter is to differ between
     fast-forward on and off (it counts the skipped spans), so it cannot
     be part of the ff-invariant projection. *)
  Obs.Metrics.counter ~stable:false
    ~help:"Quiescent rounds skipped by fast-forward (subset of congest_rounds)"
    "congest_fast_forwarded_rounds"

let m_faults =
  Obs.Metrics.counter ~label_names:[ "kind" ]
    ~help:"Fault-injection firings by kind" "congest_faults"

let m_crashed =
  Obs.Metrics.counter ~help:"Crash-stop events charged to nodes"
    "congest_crashed_nodes"

let m_run_wall =
  Obs.Metrics.counter ~stable:false ~label_names:[ "domains" ]
    ~help:"Host wall clock spent inside Engine.run, microseconds, by \
           requested domain count"
    "congest_run_wall_us"

type t = {
  stats : Stats.t;
  telemetry : Telemetry.t option;
  trace : Trace.t option;
  on_round : (int -> unit) option;
  max_rounds : int;
  t0 : float;  (* run start, only read when metrics are enabled *)
}

let create ~bandwidth ~telemetry ~trace ~on_round ~max_rounds g =
  let telemetry = Trace.resolve ~telemetry trace in
  let n = Graph.n g in
  let t0 = if Obs.Metrics.enabled () then Unix.gettimeofday () else 0.0 in
  let bw =
    match bandwidth with Some b -> b | None -> Bits.default_bandwidth n
  in
  (match trace with
  | Some tr -> Trace.set_meta tr ~n ~m:(Graph.m g) ~bandwidth:bw
  | None -> ());
  {
    stats = Stats.create ~bandwidth:bw;
    telemetry;
    trace;
    on_round;
    max_rounds;
    t0;
  }

let stats a = a.stats

let open_round a =
  let s = a.stats in
  s.Stats.rounds <- s.Stats.rounds + 1;
  s.Stats.rounds

let close_round a ~stepped ~domains ~dropped ~duplicated ~delayed ~crashed
    ~bits ~frames ~messages =
  let s = a.stats in
  s.Stats.charged_rounds <- s.Stats.charged_rounds + frames;
  s.Stats.messages <- s.Stats.messages + messages;
  s.Stats.total_bits <- s.Stats.total_bits + bits;
  s.Stats.dropped <- s.Stats.dropped + dropped;
  s.Stats.duplicated <- s.Stats.duplicated + duplicated;
  s.Stats.delayed <- s.Stats.delayed + delayed;
  s.Stats.crashed_nodes <- s.Stats.crashed_nodes + crashed;
  (match a.telemetry with
  | Some tel ->
      Telemetry.tick tel ~stepped ~domains ~dropped ~duplicated ~delayed
        ~crashed ~bits ~frames ~messages
  | None -> ());
  match a.trace with
  | Some tr ->
      Trace.round_tick tr ~round:s.Stats.rounds ~bits ~frames ~messages
        ~stepped
  | None -> ()

let crashed a k =
  a.stats.Stats.crashed_nodes <- a.stats.Stats.crashed_nodes + k;
  match a.telemetry with
  | Some tel -> Telemetry.amend tel ~frames:0 ~crashed:k
  | None -> ()

let charge ~stats ~telemetry k =
  stats.Stats.charged_rounds <- stats.Stats.charged_rounds + k;
  (match telemetry with
  | Some tel -> Telemetry.amend tel ~frames:k ~crashed:0
  | None -> ());
  Obs.Metrics.inc ~by:k m_charged_rounds

(* Quiescent-span skip: the rounds strictly before [target] are provably
   empty — nothing delivered, one frame charged, nobody resumed — so they
   are counted in O(1), exactly as the stepped rounds would have been. *)
let skip a target =
  let s = a.stats in
  let delta = target - s.Stats.rounds - 1 in
  let budget = a.max_rounds - s.Stats.rounds in
  let delta = if delta > budget then budget else delta in
  if delta > 0 then begin
    s.Stats.rounds <- s.Stats.rounds + delta;
    s.Stats.charged_rounds <- s.Stats.charged_rounds + delta;
    s.Stats.fast_forwarded_rounds <- s.Stats.fast_forwarded_rounds + delta;
    (match a.telemetry with
    | Some tel -> Telemetry.fast_forward tel ~rounds:delta
    | None -> ());
    (match a.trace with
    | Some tr ->
        Trace.fast_forward tr ~round:(s.Stats.rounds - delta) ~rounds:delta
    | None -> ());
    (* Host-side observer, called once the skip is fully accounted. *)
    match a.on_round with Some f -> f delta | None -> ()
  end

let drive a ~live ~wake ~step =
  let s = a.stats in
  let cut = ref false in
  while (not !cut) && live () do
    if s.Stats.rounds < a.max_rounds then begin
      let target = wake () in
      if target < max_int then skip a target
    end;
    if s.Stats.rounds >= a.max_rounds then cut := true
    else begin
      step ();
      match a.on_round with Some f -> f 1 | None -> ()
    end
  done;
  not !cut

let run_end a =
  match a.trace with
  | Some tr -> Trace.run_end tr ~rounds:a.stats.Stats.rounds
  | None -> ()

let guard a ~release body =
  match body () with
  | v ->
      release ();
      run_end a;
      v
  | exception e ->
      release ();
      run_end a;
      raise e

let finish a ~domains ~completed =
  if Obs.Metrics.enabled () then begin
    let s = a.stats in
    Obs.Metrics.inc m_runs;
    if not completed then Obs.Metrics.inc m_incomplete_runs;
    Obs.Metrics.inc ~by:s.Stats.rounds m_rounds;
    Obs.Metrics.inc ~by:s.Stats.charged_rounds m_charged_rounds;
    Obs.Metrics.inc ~by:s.Stats.messages m_messages;
    Obs.Metrics.inc ~by:s.Stats.total_bits m_bits;
    Obs.Metrics.inc ~by:s.Stats.oversized m_oversized;
    Obs.Metrics.inc ~by:s.Stats.fast_forwarded_rounds m_ff_rounds;
    Obs.Metrics.inc ~labels:[ "dropped" ] ~by:s.Stats.dropped m_faults;
    Obs.Metrics.inc ~labels:[ "duplicated" ] ~by:s.Stats.duplicated m_faults;
    Obs.Metrics.inc ~labels:[ "delayed" ] ~by:s.Stats.delayed m_faults;
    Obs.Metrics.inc ~by:s.Stats.crashed_nodes m_crashed;
    let dt_us =
      int_of_float ((Unix.gettimeofday () -. a.t0) *. 1e6) |> max 0
    in
    Obs.Metrics.inc ~labels:[ string_of_int domains ] ~by:dt_us m_run_wall
  end
