type key = {
  k_query : string;
  k_options : string;
  k_generation : int;
  k_stats : int;
}

(* Keys are flattened to strings so the hash table stays cheap; NUL can't
   appear in either component (query text is source code, the fingerprint
   is printf-built). *)
let key_string k =
  Printf.sprintf "%d\x00%d\x00%s\x00%s" k.k_generation k.k_stats k.k_options
    k.k_query

type 'plan entry = { e_key : key; e_plan : 'plan }

type 'plan t = {
  lru : 'plan entry Lru.t;
  mutex : Mutex.t;
      (* one lock for entries, recency and counters: eviction and LRU
         touching are multi-step, and concurrent sessions share one
         cache *)
  mutable purged : (int * int) option;
      (* the (generation, stats) pair every entry carries, when one does:
         set by a purge, kept by adds under that pair *)
  mutable hit_count : int;
  mutable miss_count : int;
  mutable eviction_count : int;
}

let create ~capacity =
  { lru = Lru.create ~capacity;
    mutex = Mutex.create ();
    purged = None;
    hit_count = 0;
    miss_count = 0;
    eviction_count = 0 }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect f ~finally:(fun () -> Mutex.unlock t.mutex)

let find ?(count = true) t key =
  locked t @@ fun () ->
  match Lru.find t.lru (key_string key) with
  | Some entry ->
    if count then t.hit_count <- t.hit_count + 1;
    Some entry.e_plan
  | None ->
    if count then t.miss_count <- t.miss_count + 1;
    None

let add t key plan =
  locked t @@ fun () ->
  if Lru.add t.lru (key_string key) { e_key = key; e_plan = plan } then
    t.eviction_count <- t.eviction_count + 1;
  if t.purged <> Some (key.k_generation, key.k_stats) then t.purged <- None

(* Nothing to scan while every entry carries the pair the last purge
   kept, which is every compile between two mutations. *)
let purge_stale t ~generation ~stats =
  locked t @@ fun () ->
  if t.purged <> Some (generation, stats) then begin
    t.purged <- Some (generation, stats);
    Lru.remove_if t.lru (fun _ entry ->
        entry.e_key.k_generation <> generation || entry.e_key.k_stats <> stats)
  end

let size t = locked t @@ fun () -> Lru.length t.lru
let hits t = locked t @@ fun () -> t.hit_count
let misses t = locked t @@ fun () -> t.miss_count
let evictions t = locked t @@ fun () -> t.eviction_count
