(** A log-structured heap of variable-length records over a {!Pager}
    file. Records are length-prefixed byte strings written sequentially,
    spanning page boundaries freely; a record's handle is its byte
    position. This is the "table" the disk-backed indexes store their
    labels in — the equivalent of the paper's database tables, minus the
    SQL. *)

type t
type handle = int
(** Byte position of the record; stable across reopen. *)

val create : Pager.t -> t
(** Wrap a pager; an empty file starts a fresh heap, otherwise the
    existing heap is resumed (the write cursor is recovered from the
    pager's page count and the trailer record). *)

val append : t -> string -> handle
(** Write a record at the end; O(record size / page size) page writes. *)

val read : t -> handle -> string
(** One pool access when the record's length prefix and payload share
    a page.
    @raise Fx_util.Codec.Corrupt on an invalid handle or a mangled
    length prefix. *)

val scan : t -> lo:handle -> hi:handle -> (bytes -> int -> int -> unit) -> unit
(** [scan t ~lo ~hi f] streams the records that tile the byte extent
    [\[lo, hi)] — [lo] is a handle, each next record starts where the
    previous one ends, and the last one ends at [hi] — calling
    [f buf pos len] on each payload in place, at [buf.[pos .. pos+len-1]].
    The bytes are valid only until [f] returns. The extent is read in
    bounded chunks of a few pages through the pool (one access per page,
    no per-record copy); a record larger than a chunk is read whole.
    @raise Fx_util.Codec.Corrupt on an extent outside the file, a
    mangled length prefix, or a record that overruns [hi]. *)

val size_bytes : t -> int
(** Bytes of record payload written (excluding page headers/slack). *)

val last_handle : t -> handle option
(** The most recently written record — a natural place for a directory
    trailer. Recovered on reopen. *)
