(** Crash-safe, content-addressed experiment result store.

    The paper's protocol is an ensemble study: hundreds of
    (graph model, algorithm, seed, replicate) cells, each perfectly
    deterministic given its key (see PARALLELISM.md). A killed
    [bench]/[table] run therefore loses nothing {e in principle} — this
    module makes that true in practice. Completed cells are persisted
    as they finish; re-running an interrupted command with the same
    [--store DIR] resumes from the cached cells and reproduces the
    uninterrupted output byte for byte (cached cells carry their
    original timings, so even the [t(...)] columns match).

    {b Layout and atomicity.} A store is a directory:

    {v
    DIR/index.json            advisory metadata {"version", "records"},
                              rewritten via tmp-file + atomic rename
    DIR/objects/<hash>.json   one record per file: a single JSON line
                              {"v":1, "key":{...}, "value":...},
                              written via tmp-file + atomic rename
    v}

    Every record is written to a unique temporary file in the same
    directory and [Sys.rename]d into place, so a [kill -9] at any
    moment leaves either no file or a complete record — never a torn
    one. A record file that is nevertheless corrupt (truncated by a
    filesystem crash, hand-edited) is dropped at {!open_store} with a
    counter bump and the run simply recomputes that cell. Leftover
    [*.tmp-*] files from killed writers are removed at open.

    {b Keys} are an ordered association list of string fields — the
    canonical cell coordinates: graph model and parameters, algorithm
    configuration fingerprint, base seed, replicate index, and any
    code-relevant config. The address of a record is the MD5 of the
    canonical JSON rendering of those fields; the full field list is
    stored alongside the value, and lookups compare the canonical
    rendering (not just the hash), so a hash collision degrades to a
    cache miss, never to a wrong answer.

    {b Concurrency.} One store value may be shared by every domain of a
    [--jobs N] fan-out: lookups and writes are serialised by an
    internal mutex and each write is its own atomic rename. Whether a
    cell is computed or replayed is invisible to the RNG scheme —
    every cell owns an independent seed — so resumed runs stay
    bit-identical at any job count.

    {b Observability.} Hits, misses, writes and dropped records are
    counted on {!Gb_obs.Metrics} counters ([store.hits], [store.misses],
    [store.writes], [store.dropped]) when metrics are enabled, and
    always on the per-store {!stats}. *)

type t

type key
(** A canonical cell address; build with {!key}. *)

val key : (string * string) list -> key
(** [key fields] is the cell address of the ordered field list
    [fields]. Equal field lists give equal keys; field {e order} is
    significant (callers use a fixed schema). *)

val key_hash : key -> string
(** Lowercase hex MD5 of the canonical rendering (the object filename
    stem). *)

val describe : key -> string
(** The canonical JSON rendering of the key fields (for diagnostics). *)

val open_store : ?readable:bool -> string -> t
(** [open_store dir] creates [dir] (and [dir/objects]) if needed, loads
    every valid record, drops corrupt ones, removes leftover temporary
    files, and rewrites [index.json]. [~readable:false] opens the store
    write-only: {!find} always misses (the [--no-cache] switch), but
    computed results are still recorded.
    @raise Failure if [dir] exists but holds an incompatible store
    (an [index.json] with a newer format version). *)

val exists : string -> bool
(** Does [dir] look like a store (has an [index.json])? Used by
    [--resume] to refuse a typo'd empty directory. *)

val dir : t -> string

val find : t -> key -> Gb_obs.Json.t option
(** Cached value for [key], if present and the store is readable.
    Counts a hit or a miss. *)

val add : t -> key -> Gb_obs.Json.t -> unit
(** Persist [value] for [key] (replacing any previous record) via
    tmp-file + atomic rename, and make it visible to {!find}.
    @raise Invalid_argument if [value] contains a non-finite float —
    a store must never launder [nan]/[inf] into later runs. *)

(* lint: allow dead-export — test/test_store.ml counts loaded records *)
val length : t -> int
(** Number of records currently loaded/written. *)

val sync : t -> unit
(** Rewrite [index.json] (atomically) to reflect the current record
    count. Called by the registry after each experiment and by
    {!close}; records themselves are always already durable. *)

val close : t -> unit
(** {!sync}. A store holds no open file handles between operations, so
    close is idempotent and a missed close loses nothing. *)

type stats = { hits : int; misses : int; writes : int; dropped : int }

val stats : t -> stats
(** Lifetime counts for this store value (independent of
    {!Gb_obs.Metrics} being enabled). [dropped] counts corrupt records
    skipped at {!open_store}. *)

(** {1 The ambient store}

    Executables surface [--store DIR] once; the harness's cell engine
    ({!Gb_experiments.Cell}) reads the ambient store back rather than
    threading it through every signature. The reference is a plain cross-domain global (pool
    workers see it), set once at startup. *)

val set_current : t option -> unit
val current : unit -> t option
