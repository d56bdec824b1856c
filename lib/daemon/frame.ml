let default_max = 1 lsl 20

let encode payload =
  let n = String.length payload in
  if n > 0x7FFFFFFF then invalid_arg "Frame.encode: payload too large";
  let b = Bytes.create (4 + n) in
  Bytes.set_uint8 b 0 ((n lsr 24) land 0xFF);
  Bytes.set_uint8 b 1 ((n lsr 16) land 0xFF);
  Bytes.set_uint8 b 2 ((n lsr 8) land 0xFF);
  Bytes.set_uint8 b 3 (n land 0xFF);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

type decoder = {
  max_frame : int;
  buf : Buffer.t;
  mutable poisoned : bool;
}

type event = Frame of string | Oversized of int

let create ?(max_frame = default_max) () =
  if max_frame <= 0 then invalid_arg "Frame.create: max_frame must be positive";
  { max_frame; buf = Buffer.create 256; poisoned = false }

let header_length d =
  (* the buffer is only ever consumed from the front by [drain], so the
     first four bytes are the pending frame's big-endian length *)
  let b = Buffer.nth d.buf in
  (Char.code (b 0) lsl 24)
  lor (Char.code (b 1) lsl 16)
  lor (Char.code (b 2) lsl 8)
  lor Char.code (b 3)

let rec drain d acc =
  if Buffer.length d.buf < 4 then List.rev acc
  else
    let n = header_length d in
    if n > d.max_frame then begin
      d.poisoned <- true;
      Buffer.clear d.buf;
      List.rev (Oversized n :: acc)
    end
    else if Buffer.length d.buf < 4 + n then List.rev acc
    else begin
      let contents = Buffer.contents d.buf in
      let payload = String.sub contents 4 n in
      Buffer.clear d.buf;
      Buffer.add_substring d.buf contents (4 + n) (String.length contents - 4 - n);
      drain d (Frame payload :: acc)
    end

let feed d buf len =
  if d.poisoned then []
  else begin
    Buffer.add_subbytes d.buf buf 0 len;
    drain d []
  end

let feed_string d s =
  if d.poisoned then []
  else begin
    Buffer.add_string d.buf s;
    drain d []
  end

let buffered d = Buffer.length d.buf
let poisoned d = d.poisoned

let write_frame fd payload =
  let s = encode payload in
  let b = Bytes.unsafe_of_string s in
  let total = Bytes.length b in
  let off = ref 0 in
  while !off < total do
    match Unix.write fd b !off (total - !off) with
    | 0 -> raise (Unix.Unix_error (Unix.EPIPE, "write", "frame"))
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done
