(* Bit length of [v >= 0] by halving the search range: six fixed steps
   cover a 63-bit int, so pricing a message costs O(1) per integer. *)
let bit_length v =
  let v = ref v and n = ref 0 in
  if !v lsr 32 <> 0 then (v := !v lsr 32; n := 32);
  if !v lsr 16 <> 0 then (v := !v lsr 16; n := !n + 16);
  if !v lsr 8 <> 0 then (v := !v lsr 8; n := !n + 8);
  if !v lsr 4 <> 0 then (v := !v lsr 4; n := !n + 4);
  if !v lsr 2 <> 0 then (v := !v lsr 2; n := !n + 2);
  if !v lsr 1 <> 0 then !n + 2 else !n + !v

let int_bits ~universe = bit_length (max universe 2 - 1)

let id_bits n = int_bits ~universe:(max n 2)

let default_bandwidth n = (8 * id_bits n) + 64

(* --- framing / fragmentation ----------------------------------------- *)

type frame = { seq : int; total : int; payload : string }

let header_bits = 32
let max_frames = 1 lsl 16
let frame_bits f = header_bits + (8 * String.length f.payload)

let fragment ~bandwidth s =
  if bandwidth < header_bits + 8 then
    invalid_arg
      (Printf.sprintf
         "Bits.fragment: bandwidth %d leaves no room for a payload byte \
          (need >= %d)"
         bandwidth (header_bits + 8));
  let chunk = (bandwidth - header_bits) / 8 in
  let len = String.length s in
  let total = max 1 ((len + chunk - 1) / chunk) in
  if total >= max_frames then
    invalid_arg
      (Printf.sprintf "Bits.fragment: payload needs %d frames (max %d)" total
         (max_frames - 1));
  List.init total (fun seq ->
      let off = seq * chunk in
      { seq; total; payload = String.sub s off (min chunk (len - off)) })

let reassemble frames =
  match frames with
  | [] -> None
  | { total; _ } :: _ ->
      let n = List.length frames in
      if total <> n || List.exists (fun f -> f.total <> total) frames then None
      else begin
        let slots = Array.make n None in
        let dup = ref false in
        List.iter
          (fun f ->
            if f.seq < 0 || f.seq >= n || slots.(f.seq) <> None then
              dup := true
            else slots.(f.seq) <- Some f.payload)
          frames;
        if !dup then None
        else
          let parts = Array.map Option.get slots in
          (* Every non-final chunk must be full-sized and equal; the final
             chunk must fit inside one of them.  A frame set that violates
             this cannot be [fragment] output, so a splice of two
             different payloads' frames is rejected rather than glued. *)
          let shape_ok =
            if n = 1 then true
            else
              let l0 = String.length parts.(0) in
              l0 >= 1
              && Array.for_all
                   (fun p -> String.length p = l0)
                   (Array.sub parts 0 (n - 1))
              && String.length parts.(n - 1) >= 1
              && String.length parts.(n - 1) <= l0
          in
          if shape_ok then Some (String.concat "" (Array.to_list parts))
          else None
      end
