(** Machine-readable observability for engine runs.

    A [Telemetry.t] attached to {!Engine.Make.run_kernel} (and threaded through
    higher layers via [Partition.State]) records, for every simulated
    round, the bits delivered, the frames charged on the most loaded
    directed edge, and the number of messages.  Rounds are grouped into
    named phases opened by {!phase}, so a caller such as
    [Partition.Stage1] can label each partition phase and Stage II can
    label its own work; the result is a per-phase round/bit/frame series
    that serializes to JSON alongside the final {!Stats.t}.

    Only {!Account} writes simulated counts here, in the same calls that
    write them into the run's {!Stats.t}.  A {!Trace.t} is built over one
    telemetry and reads its exact aggregates from it ({!Trace.totals},
    {!Trace.sim_phases}); while a trace projects a telemetry, rotate its
    phases through {!Trace.phase}, which closes the trace's host-side
    profile of the phase first.

    Recording is allocation-light: each series is a growable [int] array,
    amortized O(1) per round, and a [t] is single-run / single-domain
    state (attach a fresh one per run when fanning runs across domains). *)

(** Minimal JSON document type and printer (the toolchain has no JSON
    library; this is the serialization used by [bench --json] and
    [planartest --stats-json]). *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  (** Compact rendering (no insignificant whitespace), RFC 8259 string
      escaping; [Float] values that are not finite render as [null]. *)
  val to_buffer : Buffer.t -> t -> unit

  val to_string : t -> string

  (** [write_file path j] writes [j] followed by a newline. *)
  val write_file : string -> t -> unit
end

type t

(** [create ()] starts with one implicit phase labelled ["run"].
    [series:false] keeps only per-phase aggregates (constant memory). *)
val create : ?series:bool -> unit -> t

(** [phase t label] closes the current phase and opens a new one.  An
    empty current phase (no rounds and no charge recorded) is dropped
    rather than serialized. *)
val phase : t -> string -> unit

(** Deep copy of everything recorded so far — safe to marshal or keep
    while the original keeps ticking.  (Telemetry state is plain data:
    records, strings and int arrays; no closures.) *)
val copy : t -> t

(** [restore_into dst ~from] overwrites [dst]'s recorded state with a
    deep copy of [from]'s, as if [dst] had recorded [from]'s history
    itself.  Used by checkpoint resume to splice the pre-interruption
    series back into a fresh recorder; [dst]'s [series] setting is
    kept. *)
val restore_into : t -> from:t -> unit

(** [tick t ~stepped ~domains ~dropped ~duplicated ~delayed ~crashed
    ~bits ~frames ~messages] records one simulated round: [bits]
    delivered in total, [frames] charged for the most loaded directed
    edge (>= 1), [messages] delivered.  Called once per round by
    {!Account}.  [stepped] is the number of nodes actually resumed this
    round; [domains] is the number of domains that participated in
    stepping the round (1 when the round ran serially).  [dropped] /
    [duplicated] / [delayed] / [crashed] record fault-layer events
    charged to this round (see {!Faults}).  Every argument is required,
    so a tick allocates nothing. *)
val tick :
  t ->
  stepped:int ->
  domains:int ->
  dropped:int ->
  duplicated:int ->
  delayed:int ->
  crashed:int ->
  bits:int ->
  frames:int ->
  messages:int ->
  unit

(** [fast_forward t ~rounds] records [rounds] provably-quiescent rounds
    that the engine advanced in O(1) instead of stepping.  Each is
    accounted exactly like the empty round it replaces (0 bits, 1 frame,
    0 messages, 0 stepped), so aggregates and series are byte-identical
    whether or not fast-forwarding fired; the count is additionally
    tracked in the phase's [fast_forwarded] field.  O(1) on the
    aggregates, plus one bulk write per series when [series] is on. *)
val fast_forward : t -> rounds:int -> unit

(** [amend t ~frames] adds frames that belong to the open phase but to
    no stepped round: the charged rounds of a substituted subroutine
    ({!Account.charge}).  The series are left alone.  Called by
    {!Account}. *)
val amend : t -> frames:int -> unit

type phase_view = {
  label : string;
  rounds : int;  (** simulated rounds recorded in this phase *)
  frames : int;  (** sum of per-round frame charges (= charged rounds) *)
  bits : int;
  messages : int;
  stepped : int;  (** total nodes stepped across the phase *)
  parallel_rounds : int;  (** rounds stepped by more than one domain *)
  fast_forwarded : int;  (** of [rounds], how many were fast-forwarded *)
  max_domains : int;  (** peak domains used on any round (>= 1) *)
  dropped : int;  (** fault layer: messages destroyed in this phase *)
  duplicated : int;  (** fault layer: extra copies injected *)
  delayed : int;  (** fault layer: messages deferred by >= 1 round *)
  crashed : int;  (** fault layer: crash events taking effect *)
}

(** Phases in chronological order, empty phases dropped. *)
val phases : t -> phase_view list

(** The open phase, when it has recorded anything (it is then the last
    of {!phases}). *)
val open_phase : t -> phase_view option

(** JSON view of a {!Stats.t}. *)
val stats_json : Stats.t -> Json.t

(** Full JSON view: [{"phases": [{"label", "rounds", "frames", "bits",
    "messages", "stepped", "parallel_rounds", "fast_forwarded",
    "max_domains", "dropped", "duplicated", "delayed", "crashed",
    "series"?: {"bits", "frames", "messages", "stepped"}}]}].  The
    ["series"] member is present iff the telemetry was created with
    [series:true]; each series has one entry per recorded round. *)
val to_json : t -> Json.t
