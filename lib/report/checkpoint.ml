(* On-disk container for tester checkpoints (see planarity_tester.mli's
   [checkpoint] for the in-process protocol).

   Layout, all bytes big-endian-free (no integers outside the marshalled
   payload):

     bytes 0..7    magic "PLNRCK03" (version in the last two digits;
                   02 added the optional event-trace state to the
                   snapshot, so 01 files no longer load; 03 made the
                   trace a projection of its telemetry, so [ck_trace]
                   shares [ck_telemetry] and 02 files no longer load)
     bytes 8..23   MD5 digest of the body
     bytes 24..    body = Marshal.to_string (fingerprint, snapshot)

   The fingerprint is a canonical string of every parameter that must
   match for a resume to be sound: the graph fingerprint plus eps, seed,
   alpha and the fault spec.  Parameters that provably do not change the
   result — [domains], [fast_forward], telemetry/trace observers — are
   deliberately excluded, so a run checkpointed with 1 domain can resume
   with 8.

   Writes go through a temp file + rename so a crash mid-save leaves the
   previous checkpoint intact rather than a torn file. *)

module PT = Tester.Planarity_tester

let magic = "PLNRCK03"

let fingerprint ?(property = "planarity") g ~eps ~seed ~alpha ~faults =
  (* The property name guards against resuming one tester's Stage I into
     another (the partition is property-independent, but the snapshot's
     accounting is about to diverge).  Planarity contributes no suffix so
     its fingerprints — and hence existing checkpoint files — are
     byte-identical to pre-harness builds. *)
  Printf.sprintf "graph=%Lx eps=%h seed=%d alpha=%d faults=%s%s"
    (Graphlib.Graph.fingerprint g)
    eps seed alpha
    (match faults with
    | None -> "none"
    | Some p -> Congest.Faults.to_spec p)
    (if property = "planarity" then "" else " property=" ^ property)

let save path ~fingerprint:fp (s : PT.snapshot) =
  let body = Marshal.to_string (fp, s) [] in
  let digest = Digest.string body in
  (* Atomic tmp+rename via the shared helper: a crash mid-save leaves
     the previous checkpoint intact rather than a torn file. *)
  Obs.Fsatomic.with_channel path (fun oc ->
      output_string oc magic;
      output_string oc digest;
      output_string oc body)

let load path ~fingerprint:fp =
  if not (Sys.file_exists path) then None
  else
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let len = in_channel_length ic in
        let header = String.length magic + 16 in
        if len < header then
          failwith
            (Printf.sprintf "Checkpoint: %s is truncated (%d bytes)" path len);
        let mg = really_input_string ic (String.length magic) in
        if mg <> magic then
          failwith
            (Printf.sprintf
               "Checkpoint: %s is not a checkpoint file (bad magic %S)" path
               mg);
        let digest = really_input_string ic 16 in
        let body = really_input_string ic (len - header) in
        if Digest.string body <> digest then
          failwith
            (Printf.sprintf "Checkpoint: %s failed its checksum (corrupt)"
               path);
        let stored_fp, (s : PT.snapshot) =
          try (Marshal.from_string body 0 : string * PT.snapshot)
          with Failure _ ->
            failwith
              (Printf.sprintf
                 "Checkpoint: %s has an unreadable payload (written by an \
                  incompatible build?)"
                 path)
        in
        if stored_fp <> fp then
          failwith
            (Printf.sprintf
               "Checkpoint: %s was written for different parameters\n\
               \  stored:  %s\n\
               \  current: %s" path stored_fp fp);
        Some s)

let stage1 ~path ?(every = 1) ?after_save ?property g ~eps ~seed ~alpha
    ~faults =
  if every < 1 then invalid_arg "Checkpoint.stage1: every must be >= 1";
  let fp = fingerprint ?property g ~eps ~seed ~alpha ~faults in
  let saves = ref 0 in
  {
    PT.every;
    save =
      (fun s ->
        save path ~fingerprint:fp s;
        incr saves;
        match after_save with Some f -> f !saves | None -> ());
    load = (fun () -> load path ~fingerprint:fp);
  }
