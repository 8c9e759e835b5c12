module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let rec to_buffer buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
        if Float.is_finite f then
          (* Shortest representation that round-trips. *)
          Buffer.add_string buf (Printf.sprintf "%.17g" f)
        else Buffer.add_string buf "null"
    | String s -> escape buf s
    | List l ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            to_buffer buf x)
          l;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            escape buf k;
            Buffer.add_char buf ':';
            to_buffer buf v)
          fields;
        Buffer.add_char buf '}'

  let to_string j =
    let buf = Buffer.create 256 in
    to_buffer buf j;
    Buffer.contents buf

  let write_file path j =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        let buf = Buffer.create 4096 in
        to_buffer buf j;
        Buffer.add_char buf '\n';
        Buffer.output_buffer oc buf)
end

(* Growable int vector; the per-round series. *)
module Ivec = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = [||]; len = 0 }

  let push v x =
    let cap = Array.length v.a in
    if v.len = cap then begin
      let na = Array.make (max 16 (2 * cap)) 0 in
      Array.blit v.a 0 na 0 v.len;
      v.a <- na
    end;
    v.a.(v.len) <- x;
    v.len <- v.len + 1

  (* [k] copies of [x] in one bulk write. *)
  let push_n v x k =
    let cap = Array.length v.a in
    if v.len + k > cap then begin
      let na = Array.make (max (v.len + k) (max 16 (2 * cap))) 0 in
      Array.blit v.a 0 na 0 v.len;
      v.a <- na
    end;
    Array.fill v.a v.len k x;
    v.len <- v.len + k

  let to_json v =
    let rec build i acc =
      if i < 0 then acc else build (i - 1) (Json.Int v.a.(i) :: acc)
    in
    Json.List (build (v.len - 1) [])
end

type phase_rec = {
  label : string;
  mutable rounds : int;
  mutable frames : int;
  mutable bits : int;
  mutable messages : int;
  mutable stepped : int;
  mutable parallel_rounds : int;
  mutable fast_forwarded : int;
  mutable max_domains : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable delayed : int;
  mutable crashed : int;
  bits_series : Ivec.t;
  frames_series : Ivec.t;
  msgs_series : Ivec.t;
  stepped_series : Ivec.t;
}

type t = {
  series : bool;
  mutable cur : phase_rec;
  mutable closed : phase_rec list;  (* reverse chronological *)
}

let fresh_phase label =
  {
    label;
    rounds = 0;
    frames = 0;
    bits = 0;
    messages = 0;
    stepped = 0;
    parallel_rounds = 0;
    fast_forwarded = 0;
    max_domains = 1;
    dropped = 0;
    duplicated = 0;
    delayed = 0;
    crashed = 0;
    bits_series = Ivec.create ();
    frames_series = Ivec.create ();
    msgs_series = Ivec.create ();
    stepped_series = Ivec.create ();
  }

let create ?(series = true) () = { series; cur = fresh_phase "run"; closed = [] }

(* A phase is kept when it recorded a round or a charge; one with
   neither is dropped. *)
let kept (p : phase_rec) = p.rounds > 0 || p.frames > 0

let phase t label =
  if kept t.cur then t.closed <- t.cur :: t.closed;
  t.cur <- fresh_phase label

let copy_ivec (v : Ivec.t) = { Ivec.a = Array.copy v.Ivec.a; len = v.Ivec.len }

let copy_phase p =
  {
    p with
    bits_series = copy_ivec p.bits_series;
    frames_series = copy_ivec p.frames_series;
    msgs_series = copy_ivec p.msgs_series;
    stepped_series = copy_ivec p.stepped_series;
  }

let copy t =
  { t with cur = copy_phase t.cur; closed = List.map copy_phase t.closed }

let restore_into dst ~from =
  let c = copy from in
  dst.cur <- c.cur;
  dst.closed <- c.closed

let tick t ~stepped ~domains ~dropped ~duplicated ~delayed ~crashed ~bits
    ~frames ~messages =
  let p = t.cur in
  p.rounds <- p.rounds + 1;
  p.frames <- p.frames + frames;
  p.bits <- p.bits + bits;
  p.messages <- p.messages + messages;
  p.stepped <- p.stepped + stepped;
  p.dropped <- p.dropped + dropped;
  p.duplicated <- p.duplicated + duplicated;
  p.delayed <- p.delayed + delayed;
  p.crashed <- p.crashed + crashed;
  if domains > 1 then p.parallel_rounds <- p.parallel_rounds + 1;
  if domains > p.max_domains then p.max_domains <- domains;
  if t.series then begin
    Ivec.push p.bits_series bits;
    Ivec.push p.frames_series frames;
    Ivec.push p.msgs_series messages;
    Ivec.push p.stepped_series stepped
  end

let fast_forward t ~rounds =
  let p = t.cur in
  (* A fast-forwarded round is accounted exactly like the quiescent round
     the engine proved it to be: zero bits, one frame, zero messages, zero
     nodes stepped, one domain.  The per-phase aggregates and series
     therefore stay byte-identical whether or not fast-forwarding fired;
     the whole span costs O(1) on the aggregates and one bulk write per
     series. *)
  p.fast_forwarded <- p.fast_forwarded + rounds;
  p.rounds <- p.rounds + rounds;
  p.frames <- p.frames + rounds;
  if t.series then begin
    Ivec.push_n p.bits_series 0 rounds;
    Ivec.push_n p.frames_series 1 rounds;
    Ivec.push_n p.msgs_series 0 rounds;
    Ivec.push_n p.stepped_series 0 rounds
  end

let amend t ~frames =
  let p = t.cur in
  p.frames <- p.frames + frames

type phase_view = {
  label : string;
  rounds : int;
  frames : int;
  bits : int;
  messages : int;
  stepped : int;
  parallel_rounds : int;
  fast_forwarded : int;
  max_domains : int;
  dropped : int;
  duplicated : int;
  delayed : int;
  crashed : int;
}

let all_phases t =
  List.rev (if kept t.cur then t.cur :: t.closed else t.closed)

let view (p : phase_rec) =
  {
    label = p.label;
    rounds = p.rounds;
    frames = p.frames;
    bits = p.bits;
    messages = p.messages;
    stepped = p.stepped;
    parallel_rounds = p.parallel_rounds;
    fast_forwarded = p.fast_forwarded;
    max_domains = p.max_domains;
    dropped = p.dropped;
    duplicated = p.duplicated;
    delayed = p.delayed;
    crashed = p.crashed;
  }

let phases t = List.map view (all_phases t)
let open_phase t = if kept t.cur then Some (view t.cur) else None

let stats_json (s : Stats.t) =
  Json.Obj
    [
      ("rounds", Json.Int s.Stats.rounds);
      ("charged_rounds", Json.Int s.Stats.charged_rounds);
      ("messages", Json.Int s.Stats.messages);
      ("total_bits", Json.Int s.Stats.total_bits);
      ("max_edge_bits", Json.Int s.Stats.max_edge_bits);
      ("oversized", Json.Int s.Stats.oversized);
      ("fast_forwarded_rounds", Json.Int s.Stats.fast_forwarded_rounds);
      ("dropped", Json.Int s.Stats.dropped);
      ("duplicated", Json.Int s.Stats.duplicated);
      ("delayed", Json.Int s.Stats.delayed);
      ("crashed_nodes", Json.Int s.Stats.crashed_nodes);
      ("bandwidth", Json.Int s.Stats.bandwidth);
    ]

let to_json t =
  let phase_json (p : phase_rec) =
    let base =
      [
        ("label", Json.String p.label);
        ("rounds", Json.Int p.rounds);
        ("frames", Json.Int p.frames);
        ("bits", Json.Int p.bits);
        ("messages", Json.Int p.messages);
        ("stepped", Json.Int p.stepped);
        ("parallel_rounds", Json.Int p.parallel_rounds);
        ("fast_forwarded", Json.Int p.fast_forwarded);
        ("max_domains", Json.Int p.max_domains);
        ("dropped", Json.Int p.dropped);
        ("duplicated", Json.Int p.duplicated);
        ("delayed", Json.Int p.delayed);
        ("crashed", Json.Int p.crashed);
      ]
    in
    let series =
      if t.series then
        [
          ( "series",
            Json.Obj
              [
                ("bits", Ivec.to_json p.bits_series);
                ("frames", Ivec.to_json p.frames_series);
                ("messages", Ivec.to_json p.msgs_series);
                ("stepped", Ivec.to_json p.stepped_series);
              ] );
        ]
      else []
    in
    Json.Obj (base @ series)
  in
  Json.Obj [ ("phases", Json.List (List.map phase_json (all_phases t))) ]
