(** Stage I of the tester (Section 2.1): the deterministic partition
    algorithm.  Runs [t = O(log 1/eps)] phases of forest decomposition plus
    merging, producing connected parts of poly(1/eps) diameter such that —
    when the input graph is planar, or more generally of auxiliary
    arboricity at most [alpha] throughout — the number of edges crossing
    between parts is at most [eps * m / 2].

    When some auxiliary graph has arboricity above [alpha], at least one
    part root rejects; the returned trace says which.  (One-sided: planar
    inputs never reject.) *)

type phase_trace = {
  phase : int;
  cut_before : int;  (** inter-part edges entering the phase *)
  cut_after : int;
  max_diameter : int;  (** max part diameter after the phase *)
  max_tree_depth : int;
  parts : int;  (** parts after the phase *)
  fd_super_rounds : int;  (** super-rounds the peeling actually took *)
}

type result = {
  state : State.t;  (** final per-node state (partition + trees) *)
  rejected : (int * string) list;  (** non-empty = evidence found *)
  phases : phase_trace list;  (** chronological *)
  rounds : int;  (** simulator rounds actually executed *)
  nominal_rounds : int;
      (** rounds of the paper's fixed schedule ([Theta (log n)] super-rounds
          per phase, each budgeted by the [4^i] diameter bound) *)
  degraded : string option;
      (** [Some reason] when an active fault policy prevented the emulation
          from completing (crash-stopped node, broken lockstep assumption);
          the partial [state]/[phases] describe the work done before the
          breakdown, and [rejected] must not be trusted as evidence *)
}

(** Maximum number of phases for a distance parameter [eps]:
    [(1 - 1/(12 alpha))^t <= eps / 2]. *)
val phases_for : eps:float -> alpha:int -> int

(** [run ?alpha ?stop_when_met g ~eps] executes Stage I.

    @param alpha arboricity bound to verify (default 3 — planar).
    @param stop_when_met stop as soon as the cut is at most
           [eps * m / 2] (default [true]; the paper always runs the full
           [t] phases, which its worst-case analysis needs, but stopping
           early only removes no-op phases on real inputs — set [false]
           to force the full schedule).
    @param measure_diameters compute each phase's exact maximum part
           diameter for the trace (default [true]; all-pairs BFS per part
           — disable on large inputs, the trace then records [-1]).
    @param state run on this {!State.t} instead of [State.create g].
           The state is the one carrier of the run's settings: every
           engine run reads its telemetry and trace recorders, domain
           count, fast-forward switch, fault policy and [on_round]
           observer from it (the {!State.create} defaults — no
           recorders, serial, fast-forward on, no faults — when
           omitted), and each partition phase opens a
           ["stage1-phase-<i>"] phase on its recorders ({!State.phase}).
           It is also the resume half of checkpointing: restore a state
           with {!State.restore}, configure it, then pass it here
           together with [?resume].
    @param resume [(next_phase, phases_rev)]: start the phase loop at
           [next_phase] (1-based) with the reverse-chronological phase
           traces accumulated so far — exactly the pair an [?on_phase]
           callback received.  Only meaningful together with [?state].
    @param on_phase called at the end of every completed phase (after
           merging, before the next phase starts) with [(next_phase,
           phases_rev)] — the arguments that, fed back through [?resume]
           on a state captured at that moment, continue the run
           identically.  Not called for the final phase of a run that is
           about to return (target met, rejection, or phase budget
           exhausted).  At the callback point all engine pools are
           quiescent, so the {!State.t} contains only plain marshal-safe
           data. *)
val run :
  ?alpha:int ->
  ?stop_when_met:bool ->
  ?measure_diameters:bool ->
  ?state:State.t ->
  ?resume:int * phase_trace list ->
  ?on_phase:(int -> phase_trace list -> unit) ->
  Graphlib.Graph.t ->
  eps:float ->
  result
