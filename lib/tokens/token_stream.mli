(** Token streams and the conversions between the streamed and materialized
    forms of XQuery Data Model values.

    Streams are lazy ({!Stdlib.Seq.t}); an adaptor can feed tokens
    incrementally and operators that do not need materialization (maps,
    filters, the pre-clustered group operator) consume them in constant
    memory. *)

open Aldsp_xml

type t = Token.t Seq.t

val concat : t list -> t

val of_node : Node.t -> t
(** Streams a node tree: [Start_element], attributes, content tokens,
    [End_element]. Typed leaves become {!Token.Atom} tokens. *)

val of_sequence : Item.sequence -> t

val iter_item : (Token.t -> unit) -> Item.t -> unit
(** [iter_item f item] calls [f] on each token of [of_item item], in
    order, without building the stream. *)

(** Where a delivered value goes: one token at a time, or an item
    sequence already built. *)
type sink = { token : Token.t -> unit; items : Item.sequence -> unit }

val token_sink : (Token.t -> unit) -> sink
(** The sink that passes tokens to the function and expands items into
    their tokens with {!iter_item}. *)

val building_sink : unit -> sink * (unit -> Item.sequence)
(** A sink that builds the items delivered into it, and a function
    returning them. Items are attached as they are, never walked into
    tokens: as children of the innermost open element, or at top level,
    where a sequence that arrives alone is returned uncopied. The sink
    raises [Invalid_argument] on a malformed stream, the function while
    an element is open. *)

val to_items : t -> (Item.sequence, string) result
(** Reassembles items from a stream through {!building_sink}; a stream
    it rejects is an [Error]. *)

val box : t -> Token.t
(** Packs a finite stream into a single {!Token.Boxed} token. *)

val unbox : Token.t -> t
(** Inverse of {!box}; a non-boxed token becomes a singleton stream. *)

val length : t -> int
(** Number of tokens (forces the stream). *)

val serialize_chunks : t -> string Seq.t
(** Incremental XML serialization, produced lazily: the stream is
    serialized without first materializing a tree (the server-side
    redirect-to-file API of §2.2). Each chunk holds at least 4 KiB except
    the last, which holds the rest; an empty stream yields none. Tuple
    delimiters render as processing-instruction-like markers and [Boxed]
    tokens are unboxed transparently. On a malformed stream, or when
    pulling the stream raises, the bytes written before the fault come
    first as a chunk, then forcing the next node raises
    ([Invalid_argument] for a malformed stream). *)

type chunk_writer
(** The serializer of {!serialize_chunks} driven token by token: it hands
    out the same chunks, in order, to a callback, through one buffer
    reused for the whole stream. *)

val chunk_writer : (string -> unit) -> chunk_writer
(** A writer at the start of a stream, handing its chunks to the
    callback. *)

val chunk_write : chunk_writer -> Token.t -> unit
(** Serializes one token; hands out a chunk as soon as the buffered bytes
    reach 4 KiB. Raises [Invalid_argument] on a malformed stream. *)

val chunk_flush : chunk_writer -> unit
(** Hands out the bytes buffered so far, if any, as they stand: the
    partial chunk written before a fault. *)

val chunk_close : chunk_writer -> unit
(** Ends the stream: closes a start tag still open, hands out the rest.
    Raises [Invalid_argument] when an element is still open. *)

val serialize_to : Buffer.t -> t -> unit
(** Serializes a stream into a buffer, byte for byte the concatenation of
    {!serialize_chunks}. *)

val serialize_items : Buffer.t -> Item.sequence -> int
(** [serialize_items buf items] appends the serialization of
    [of_sequence items] to [buf] without building that stream, and returns
    its token count ([length (of_sequence items)]). *)

val pp : Format.formatter -> t -> unit
