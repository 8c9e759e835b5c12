(* Flat CSR representation.

   The graph is four unboxed int arrays:

     xadj : n+1     arc range of vertex v is xadj.(v) .. xadj.(v+1) - 1
     adj  : 2m      packed arc (nbr lsl eid_shift) lor eid, sorted per vertex
     esrc : m       endpoints by edge id, esrc.(e) < edst.(e)
     edst : m

   Packing the neighbor in the high bits means sorting the packed ints
   per vertex reproduces exactly the (neighbor, edge id) lexicographic
   order the previous boxed representation used, so port numbering — and
   therefore every protocol decision keyed on it — is unchanged.

   Analytic storage cost: 8 bytes per vertex (xadj) and 32 bytes per
   edge (two arcs in adj + esrc + edst); see [storage_bytes]. *)

type t = {
  n : int;
  m : int;
  xadj : int array;
  adj : int array;
  esrc : int array;
  edst : int array;
}

let eid_shift = 31
let eid_mask = (1 lsl eid_shift) - 1
let max_size = 1 lsl eid_shift

let check_endpoint n v =
  if v < 0 || v >= n then
    invalid_arg (Printf.sprintf "Graph: endpoint %d outside [0, %d)" v n)

(* In-place quicksort (median-of-three, insertion sort below 16) on a
   slice of an int array; Stdlib.Array.sort cannot sort slices without
   copying them out. *)
let sort_slice (a : int array) lo hi =
  let rec qsort lo hi =
    if hi - lo > 16 then begin
      let mid = (lo + hi) / 2 in
      let x = a.(lo) and y = a.(mid) and z = a.(hi - 1) in
      let pivot =
        if x < y then if y < z then y else if x < z then z else x
        else if x < z then x
        else if y < z then z
        else y
      in
      let i = ref lo and j = ref (hi - 1) in
      while !i <= !j do
        while a.(!i) < pivot do incr i done;
        while a.(!j) > pivot do decr j done;
        if !i <= !j then begin
          let tmp = a.(!i) in
          a.(!i) <- a.(!j);
          a.(!j) <- tmp;
          incr i;
          decr j
        end
      done;
      qsort lo (!j + 1);
      qsort !i hi
    end
    else
      for i = lo + 1 to hi - 1 do
        let x = a.(i) in
        let j = ref (i - 1) in
        while !j >= lo && a.(!j) > x do
          a.(!j + 1) <- a.(!j);
          decr j
        done;
        a.(!j + 1) <- x
      done
  in
  qsort lo hi

(* Core constructor from edge-id-indexed endpoint arrays ([esrc.(e) <
   edst.(e)] already enforced, no self-loops).  Duplicate edges are
   detected after the per-vertex sort — equal neighbors land adjacent —
   so no hash table is ever needed.  [on_dup] decides the policy: raise
   ([`Error]) or compact them away keeping the smallest edge id
   ([`Dedup]). *)
let rec of_flat ~on_dup ~n ~m esrc edst =
  if n > max_size || m > max_size then
    invalid_arg "Graph: more than 2^31 vertices or edges";
  let xadj = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    xadj.(esrc.(e)) <- xadj.(esrc.(e)) + 1;
    xadj.(edst.(e)) <- xadj.(edst.(e)) + 1
  done;
  let acc = ref 0 in
  for v = 0 to n do
    let d = xadj.(v) in
    xadj.(v) <- !acc;
    acc := !acc + d
  done;
  let adj = Array.make (2 * m) 0 in
  let next = Array.sub xadj 0 n in
  for e = 0 to m - 1 do
    let u = esrc.(e) and v = edst.(e) in
    adj.(next.(u)) <- (v lsl eid_shift) lor e;
    next.(u) <- next.(u) + 1;
    adj.(next.(v)) <- (u lsl eid_shift) lor e;
    next.(v) <- next.(v) + 1
  done;
  for v = 0 to n - 1 do
    sort_slice adj xadj.(v) xadj.(v + 1)
  done;
  (* Duplicate scan: arcs with equal neighbor are now adjacent. *)
  let doomed = ref [||] in
  let dups = ref 0 in
  for v = 0 to n - 1 do
    for i = xadj.(v) + 1 to xadj.(v + 1) - 1 do
      let a = adj.(i - 1) and b = adj.(i) in
      if a lsr eid_shift = b lsr eid_shift then begin
        (match on_dup with
        | `Error ->
            let w = b lsr eid_shift in
            let u, w = if v < w then (v, w) else (w, v) in
            invalid_arg
              (Printf.sprintf "Graph.make: duplicate edge (%d, %d)" u w)
        | `Dedup -> ());
        if !doomed = [||] then doomed := Array.make m false;
        let e = b land eid_mask in
        if not !doomed.(e) then begin
          !doomed.(e) <- true;
          incr dups
        end
      end
    done
  done;
  if !dups = 0 then { n; m; xadj; adj; esrc; edst }
  else begin
    (* Keep the first occurrence of each duplicated pair (the smallest
       edge id survives — sorting put it first) and renumber compactly,
       preserving relative order. *)
    let doomed = !doomed in
    let m' = m - !dups in
    let esrc' = Array.make m' 0 and edst' = Array.make m' 0 in
    let k = ref 0 in
    for e = 0 to m - 1 do
      if not doomed.(e) then begin
        esrc'.(!k) <- esrc.(e);
        edst'.(!k) <- edst.(e);
        incr k
      end
    done;
    of_flat ~on_dup:`Error ~n ~m:m' esrc' edst'
  end

(* --- streaming builder ------------------------------------------------ *)

module Builder = struct
  type t = {
    bn : int;
    mutable bsrc : int array;
    mutable bdst : int array;
    mutable blen : int;
    mutable self_loop : int; (* first self-loop vertex, or -1 *)
  }

  let create ?(hint = 16) ~n () =
    if n < 0 then invalid_arg "Graph.Builder.create: negative n";
    let cap = max 1 hint in
    {
      bn = n;
      bsrc = Array.make cap 0;
      bdst = Array.make cap 0;
      blen = 0;
      self_loop = -1;
    }

  let add b u v =
    check_endpoint b.bn u;
    check_endpoint b.bn v;
    if u = v then begin
      if b.self_loop < 0 then b.self_loop <- u
    end
    else begin
      let cap = Array.length b.bsrc in
      if b.blen = cap then begin
        let cap' = 2 * cap in
        let s = Array.make cap' 0 and d = Array.make cap' 0 in
        Array.blit b.bsrc 0 s 0 b.blen;
        Array.blit b.bdst 0 d 0 b.blen;
        b.bsrc <- s;
        b.bdst <- d
      end;
      if u < v then begin
        b.bsrc.(b.blen) <- u;
        b.bdst.(b.blen) <- v
      end
      else begin
        b.bsrc.(b.blen) <- v;
        b.bdst.(b.blen) <- u
      end;
      b.blen <- b.blen + 1
    end

  let count b = b.blen

  let shrunk b =
    if Array.length b.bsrc = b.blen then (b.bsrc, b.bdst)
    else (Array.sub b.bsrc 0 b.blen, Array.sub b.bdst 0 b.blen)

  let finish b =
    if b.self_loop >= 0 then
      invalid_arg
        (Printf.sprintf "Graph.make: self-loop at %d" b.self_loop);
    let esrc, edst = shrunk b in
    of_flat ~on_dup:`Error ~n:b.bn ~m:b.blen esrc edst

  let finish_dedup b =
    let esrc, edst = shrunk b in
    of_flat ~on_dup:`Dedup ~n:b.bn ~m:b.blen esrc edst
end

let make ~n edges =
  let b = Builder.create ~hint:(List.length edges) ~n () in
  List.iter (fun (u, v) -> Builder.add b u v) edges;
  Builder.finish b

let of_edges_dedup ~n edges =
  let b = Builder.create ~hint:(max 1 (List.length edges)) ~n () in
  List.iter (fun (u, v) -> Builder.add b u v) edges;
  Builder.finish_dedup b

(* --- accessors -------------------------------------------------------- *)

let n g = g.n
let m g = g.m
let degree g v = g.xadj.(v + 1) - g.xadj.(v)

(* Zero-allocation port-indexed access: port [i] of [v] is the [i]-th
   (neighbor, edge id) pair in neighbor-sorted order. *)
let nbr g v i = g.adj.(g.xadj.(v) + i) lsr eid_shift
let incident_eid g v i = g.adj.(g.xadj.(v) + i) land eid_mask

let iter_incident g v f =
  for i = g.xadj.(v) to g.xadj.(v + 1) - 1 do
    let a = g.adj.(i) in
    f (a lsr eid_shift) (a land eid_mask)
  done

let neighbors g v =
  Array.init (degree g v) (fun i -> g.adj.(g.xadj.(v) + i) lsr eid_shift)

let incident g v =
  Array.init (degree g v) (fun i ->
      let a = g.adj.(g.xadj.(v) + i) in
      (a lsr eid_shift, a land eid_mask))

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    let d = degree g v in
    if d > !best then best := d
  done;
  !best

let edge g e = (g.esrc.(e), g.edst.(e))

let endpoints g = Array.init g.m (fun e -> (g.esrc.(e), g.edst.(e)))

(* Binary search over the neighbor-sorted arc slice [a.(lo..hi-1)]; top
   level, so a lookup (every [send] by neighbor id) builds no closure. *)
let rec search_row a v lo hi =
  if lo >= hi then raise Not_found
  else
    let mid = (lo + hi) / 2 in
    let w = a.(mid) lsr eid_shift in
    if w = v then a.(mid) land eid_mask
    else if w < v then search_row a v (mid + 1) hi
    else search_row a v lo mid

let find_incident g u v = search_row g.adj v g.xadj.(u) g.xadj.(u + 1)

let find_edge g u v = find_incident g u v

let has_edge g u v =
  match find_incident g u v with _ -> true | exception Not_found -> false

let other_endpoint g e v =
  let u = g.esrc.(e) and w = g.edst.(e) in
  if v = u then w
  else if v = w then u
  else invalid_arg "Graph.other_endpoint: vertex not on edge"

let iter_edges f g =
  for e = 0 to g.m - 1 do
    f e g.esrc.(e) g.edst.(e)
  done

let fold_edges f init g =
  let acc = ref init in
  iter_edges (fun e u v -> acc := f !acc e u v) g;
  !acc

(* --- modification (rebuilds) ------------------------------------------ *)

let norm u v = if u < v then (u, v) else (v, u)

let add_edges g edges =
  let extra =
    List.map
      (fun (u, v) ->
        check_endpoint g.n u;
        check_endpoint g.n v;
        if u = v then invalid_arg "Graph.add_edges: self-loop";
        if has_edge g u v then invalid_arg "Graph.add_edges: duplicate edge";
        norm u v)
      edges
  in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun p ->
      if Hashtbl.mem seen p then invalid_arg "Graph.add_edges: duplicate edge";
      Hashtbl.add seen p ())
    extra;
  let k = List.length extra in
  let m' = g.m + k in
  let esrc = Array.make m' 0 and edst = Array.make m' 0 in
  Array.blit g.esrc 0 esrc 0 g.m;
  Array.blit g.edst 0 edst 0 g.m;
  List.iteri
    (fun i (u, v) ->
      esrc.(g.m + i) <- u;
      edst.(g.m + i) <- v)
    extra;
  of_flat ~on_dup:`Error ~n:g.n ~m:m' esrc edst

let remove_edges g pred =
  let remap = Array.make g.m (-1) in
  let count = ref 0 in
  for e = 0 to g.m - 1 do
    if not (pred e) then begin
      remap.(e) <- !count;
      incr count
    end
  done;
  let m' = !count in
  let esrc = Array.make m' 0 and edst = Array.make m' 0 in
  for e = 0 to g.m - 1 do
    let e' = remap.(e) in
    if e' >= 0 then begin
      esrc.(e') <- g.esrc.(e);
      edst.(e') <- g.edst.(e)
    end
  done;
  (of_flat ~on_dup:`Error ~n:g.n ~m:m' esrc edst, remap)

let induced g vs =
  let vs = Array.of_list vs in
  let k = Array.length vs in
  let back = Hashtbl.create (2 * k) in
  Array.iteri
    (fun i v ->
      check_endpoint g.n v;
      if Hashtbl.mem back v then invalid_arg "Graph.induced: duplicate vertex";
      Hashtbl.add back v i)
    vs;
  (* Walk the members' incidences, taking each inner edge once (from its
     lower endpoint), and add the edges in ascending original id, the
     order a scan of all m edges would add them in: the subgraph and its
     edge ids do not depend on the order of [vs].  O(volume of [vs])
     hash lookups plus a sort of the inner edge ids. *)
  let vol = Array.fold_left (fun acc v -> acc + degree g v) 0 vs in
  let ids = Array.make vol 0 and len = ref 0 in
  Array.iter
    (fun v ->
      for i = g.xadj.(v) to g.xadj.(v + 1) - 1 do
        let w = g.adj.(i) lsr eid_shift in
        if v < w && Hashtbl.mem back w then begin
          ids.(!len) <- g.adj.(i) land eid_mask;
          incr len
        end
      done)
    vs;
  sort_slice ids 0 !len;
  let b = Builder.create ~hint:!len ~n:k () in
  for j = 0 to !len - 1 do
    let e = ids.(j) in
    Builder.add b (Hashtbl.find back g.esrc.(e)) (Hashtbl.find back g.edst.(e))
  done;
  (Builder.finish b, vs)

let disjoint_union g1 g2 =
  let shift = g1.n in
  let m' = g1.m + g2.m in
  let esrc = Array.make m' 0 and edst = Array.make m' 0 in
  Array.blit g1.esrc 0 esrc 0 g1.m;
  Array.blit g1.edst 0 edst 0 g1.m;
  for e = 0 to g2.m - 1 do
    esrc.(g1.m + e) <- g2.esrc.(e) + shift;
    edst.(g1.m + e) <- g2.edst.(e) + shift
  done;
  of_flat ~on_dup:`Error ~n:(g1.n + g2.n) ~m:m' esrc edst

let pp fmt g =
  Format.fprintf fmt "@[<v>graph n=%d m=%d@," g.n g.m;
  iter_edges (fun e u v -> Format.fprintf fmt "  e%d: (%d, %d)@," e u v) g;
  Format.fprintf fmt "@]"

let equal g1 g2 =
  g1.n = g2.n && g1.m = g2.m
  &&
  let s1 = endpoints g1 and s2 = endpoints g2 in
  Array.sort compare s1;
  Array.sort compare s2;
  s1 = s2

(* --- accounting and identity ------------------------------------------ *)

let word = 8

let storage_bytes g =
  let node_bytes = word * (g.n + 1) in
  let edge_bytes = word * ((2 * g.m) + g.m + g.m) in
  (node_bytes, edge_bytes)

(* FNV-1a over (n, m, endpoints by edge id).  Edge-id order is part of
   the identity on purpose: two graphs with the same edge set but
   different id assignment behave differently under id-keyed fault
   schedules, and checkpoint resume must reject them. *)
let fingerprint g =
  let h = ref 0xcbf29ce484222325L in
  let mix x =
    let x = Int64.of_int x in
    h := Int64.mul (Int64.logxor !h x) 0x100000001b3L
  in
  mix g.n;
  mix g.m;
  for e = 0 to g.m - 1 do
    mix g.esrc.(e);
    mix g.edst.(e)
  done;
  !h
