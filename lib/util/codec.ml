exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

module Writer = struct
  type t = Buffer.t

  let create ~magic =
    let b = Buffer.create 1024 in
    Buffer.add_string b magic;
    Buffer.add_char b '\xff';
    b

  (* Zig-zag + LEB128: small magnitudes stay small. *)
  let int b v =
    let u = (v lsl 1) lxor (v asr 62) in
    let u = ref (u land max_int) in
    let continue = ref true in
    while !continue do
      let byte = !u land 0x7f in
      u := !u lsr 7;
      if !u = 0 then begin
        Buffer.add_char b (Char.chr byte);
        continue := false
      end
      else Buffer.add_char b (Char.chr (byte lor 0x80))
    done

  let int_array b arr =
    int b (Array.length arr);
    Array.iter (int b) arr

  let string b s =
    int b (String.length s);
    Buffer.add_string b s

  let contents = Buffer.contents
end

module Reader = struct
  (* A window [pos, limit) of [data]. [data] is never written through,
     so [create] may view its string as bytes without a copy. *)
  type t = { data : bytes; mutable pos : int; limit : int }

  let magic_at ~magic data pos limit =
    let m = String.length magic in
    m + 1 <= limit - pos
    && Bytes.get data (pos + m) = '\xff'
    &&
    let i = ref 0 in
    while !i < m && Bytes.get data (pos + !i) = magic.[!i] do
      incr i
    done;
    !i = m

  let sub ~magic data ~pos ~len =
    if pos < 0 || len < 0 || pos > Bytes.length data || len > Bytes.length data - pos then
      corrupt "record [%d, +%d) extends past its %d-byte window" pos len (Bytes.length data);
    if not (magic_at ~magic data pos (pos + len)) then corrupt "bad magic (expected %s)" magic;
    { data; pos = pos + String.length magic + 1; limit = pos + len }

  let create ~magic data =
    sub ~magic (Bytes.unsafe_of_string data) ~pos:0 ~len:(String.length data)

  let byte t =
    if t.pos >= t.limit then corrupt "truncated input at %d" t.pos;
    let c = Char.code (Bytes.get t.data t.pos) in
    t.pos <- t.pos + 1;
    c

  let unzigzag u = (u lsr 1) lxor -(u land 1)

  let int_loop t =
    let u = ref 0 and shift = ref 0 and continue = ref true in
    while !continue do
      if !shift > 63 then corrupt "varint too long at %d" t.pos;
      let b = byte t in
      u := !u lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7;
      if b land 0x80 = 0 then continue := false
    done;
    unzigzag !u

  (* One- and two-byte varints — small ids and distances, most of a
     label — decode without the loop; everything else, errors included,
     goes through it. *)
  let int t =
    let pos = t.pos in
    let b = if pos < t.limit then Char.code (Bytes.get t.data pos) else 0x80 in
    if b < 0x80 then begin
      t.pos <- pos + 1;
      unzigzag b
    end
    else
      let b2 = if pos + 1 < t.limit then Char.code (Bytes.get t.data (pos + 1)) else 0x80 in
      if b2 < 0x80 then begin
        t.pos <- pos + 2;
        unzigzag ((b land 0x7f) lor (b2 lsl 7))
      end
      else int_loop t

  let remaining t = t.limit - t.pos

  let int_array t =
    let n = int t in
    if n < 0 || n > remaining t then corrupt "implausible array length %d at %d" n t.pos;
    Array.init n (fun _ -> int t)

  let string t =
    let n = int t in
    if n < 0 || n > remaining t then corrupt "implausible string length %d at %d" n t.pos;
    let s = Bytes.sub_string t.data t.pos n in
    t.pos <- t.pos + n;
    s

  let expect_end t = if t.pos <> t.limit then corrupt "%d trailing bytes" (remaining t)
end
