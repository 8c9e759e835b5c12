(** Versioned on-disk storage for tester checkpoints.

    File layout: the 8-byte magic ["PLNRCK03"], a 16-byte MD5 digest of
    the body, then the body — [Marshal] bytes of the pair (parameter
    fingerprint, {!Tester.Planarity_tester.snapshot}).  Saves are atomic
    (temp file + rename), so an interrupted save leaves the previous
    checkpoint readable.  Loads verify magic, checksum and fingerprint
    and raise [Failure] with a description on any mismatch — a stale or
    foreign file never resumes silently.

    The fingerprint covers exactly the parameters that change the
    result: the {!Graphlib.Graph.fingerprint}, [eps], [seed], [alpha]
    and the canonical fault spec.  [domains] and [fast_forward] are
    excluded on purpose — accounting is identical for any value, so a
    checkpoint taken at [--domains 1] resumes fine at [--domains 8]. *)

(** Canonical parameter fingerprint stored in (and demanded of) a
    checkpoint file.  [property] (default ["planarity"]) guards against
    resuming one tester's Stage I into another; the default contributes
    no suffix, so planarity fingerprints — and existing checkpoint
    files — are unchanged from pre-harness builds. *)
val fingerprint :
  ?property:string ->
  Graphlib.Graph.t ->
  eps:float ->
  seed:int ->
  alpha:int ->
  faults:Congest.Faults.policy option ->
  string

(** [save path ~fingerprint s] writes [s] atomically. *)
val save :
  string -> fingerprint:string -> Tester.Planarity_tester.snapshot -> unit

(** [load path ~fingerprint] is [None] when [path] does not exist
    (fresh start), [Some snapshot] on a valid file, and raises [Failure]
    on a truncated, corrupt or mismatched one. *)
val load :
  string ->
  fingerprint:string ->
  Tester.Planarity_tester.snapshot option

(** [stage1 ~path ?every ?after_save g ~eps ~seed ~alpha ~faults] wires
    the container into a {!Tester.Harness.checkpoint} (the type
    {!Tester.Planarity_tester.checkpoint} equals transparently): [load]
    reads [path] (missing file = fresh start), [save] writes it
    atomically after every [every]-th completed Stage I phase (default
    1).  [after_save] is called with the number of saves performed so
    far — the hook CLI harnesses use to simulate a kill after the n-th
    checkpoint.  [property] feeds the {!fingerprint} (default
    ["planarity"]). *)
val stage1 :
  path:string ->
  ?every:int ->
  ?after_save:(int -> unit) ->
  ?property:string ->
  Graphlib.Graph.t ->
  eps:float ->
  seed:int ->
  alpha:int ->
  faults:Congest.Faults.policy option ->
  Tester.Planarity_tester.checkpoint
