(* The paper's planarity tester as a Harness instantiation: Stage II is
   {!Stage2.run}, everything else — Stage I invocation, checkpoint/resume,
   fault degradation, verdict plumbing, metrics — lives in {!Harness}.
   The type equations below are transparent so existing callers (CLI,
   Report.Checkpoint, tests) keep pattern-matching and building these
   records directly. *)

type verdict = Harness.verdict =
  | Accept
  | Reject of (int * string) list
  | Degraded of string

type partition_mode = Harness.partition_mode =
  | Stage_one
  | Exponential_shifts
  | Randomized of float

type snapshot = Harness.snapshot = {
  ck_phase : int;
  ck_phases_rev : Partition.Stage1.phase_trace list;
  ck_nodes : Partition.State.node array;
  ck_stats : Congest.Stats.t;
  ck_rejections : (int * string) list;
  ck_nominal_rounds : int;
  ck_telemetry : Congest.Telemetry.t option;
  ck_trace : Congest.Trace.t option;
}

type checkpoint = Harness.checkpoint = {
  save : snapshot -> unit;
  load : unit -> snapshot option;
  every : int;
}

type report = {
  verdict : verdict;
  stage1 : Partition.Stage1.result option;
  stage2 : Stage2.result option;
  rounds : int;
  nominal_rounds : int;
  messages : int;
  total_bits : int;
  fast_forwarded_rounds : int;
  dropped : int;
  duplicated : int;
  delayed : int;
  crashed_nodes : int;
}

let run ?seed ?alpha ?partition ?(embedding = Stage2.Oracle)
    ?measure_diameters ?telemetry ?trace ?domains ?fast_forward ?faults
    ?mode ?checkpoint ?heartbeat g ~eps =
  let stage2, t =
    Harness.run ?seed ?alpha ?partition ?measure_diameters ?telemetry ?trace
      ?domains ?fast_forward ?faults ?mode ?checkpoint ?heartbeat
      ~property:"planarity"
      ~stage2:(fun st ~eps ~seed -> Stage2.run ~embedding st ~eps ~seed)
      g ~eps
  in
  {
    verdict = t.Harness.verdict;
    stage1 = t.Harness.stage1;
    stage2;
    rounds = t.Harness.rounds;
    nominal_rounds = t.Harness.nominal_rounds;
    messages = t.Harness.messages;
    total_bits = t.Harness.total_bits;
    fast_forwarded_rounds = t.Harness.fast_forwarded_rounds;
    dropped = t.Harness.dropped;
    duplicated = t.Harness.duplicated;
    delayed = t.Harness.delayed;
    crashed_nodes = t.Harness.crashed_nodes;
  }

let accepts ?seed ?partition g ~eps =
  match (run ?seed ?partition g ~eps).verdict with
  | Accept -> true
  | Reject _ | Degraded _ -> false
