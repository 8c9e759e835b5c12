type t = {
  mutable rounds : int;
  mutable charged_rounds : int;
  mutable messages : int;
  mutable total_bits : int;
  mutable max_edge_bits : int;
  mutable oversized : int;
  mutable fast_forwarded_rounds : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable delayed : int;
  mutable crashed_nodes : int;
  bandwidth : int;
}

let create ~bandwidth =
  {
    rounds = 0;
    charged_rounds = 0;
    messages = 0;
    total_bits = 0;
    max_edge_bits = 0;
    oversized = 0;
    fast_forwarded_rounds = 0;
    dropped = 0;
    duplicated = 0;
    delayed = 0;
    crashed_nodes = 0;
    bandwidth;
  }

let copy t = { t with rounds = t.rounds }

let frames ~bandwidth bits =
  if bits <= bandwidth then 1 else (bits + bandwidth - 1) / bandwidth

let add_into acc s =
  acc.rounds <- acc.rounds + s.rounds;
  acc.charged_rounds <- acc.charged_rounds + s.charged_rounds;
  acc.messages <- acc.messages + s.messages;
  acc.total_bits <- acc.total_bits + s.total_bits;
  acc.max_edge_bits <- max acc.max_edge_bits s.max_edge_bits;
  acc.oversized <- acc.oversized + s.oversized;
  acc.fast_forwarded_rounds <-
    acc.fast_forwarded_rounds + s.fast_forwarded_rounds;
  acc.dropped <- acc.dropped + s.dropped;
  acc.duplicated <- acc.duplicated + s.duplicated;
  acc.delayed <- acc.delayed + s.delayed;
  acc.crashed_nodes <- acc.crashed_nodes + s.crashed_nodes

let faults_fired t =
  t.dropped > 0 || t.duplicated > 0 || t.delayed > 0 || t.crashed_nodes > 0

let pp fmt t =
  Format.fprintf fmt
    "rounds=%d charged=%d messages=%d bits=%d max-edge-bits=%d oversized=%d \
     fast-forwarded=%d bandwidth=%d"
    t.rounds t.charged_rounds t.messages t.total_bits t.max_edge_bits
    t.oversized t.fast_forwarded_rounds t.bandwidth;
  if faults_fired t then
    Format.fprintf fmt " dropped=%d duplicated=%d delayed=%d crashed=%d"
      t.dropped t.duplicated t.delayed t.crashed_nodes
