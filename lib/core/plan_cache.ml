module IntMap = Map.Make (Int)

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

(* Recency is a monotonically increasing tick per touch: each entry
   carries its latest tick, and [recency] maps tick -> key, so touching
   is two O(log n) map operations (remove the old tick, add the new) and
   the eviction victim is [IntMap.min_binding]. The previous
   representation — a most-recent-first list filtered on every touch —
   made every hit O(live entries). *)
type 'plan entry = { e_key : key; e_plan : 'plan; mutable e_tick : int }

type 'plan t = {
  capacity : int;
  table : (string, 'plan entry) Hashtbl.t;
  mutex : Mutex.t;
      (* one lock for table + recency + counters: eviction and LRU
         touching are multi-step, and concurrent sessions share one
         cache *)
  mutable recency : string IntMap.t;  (* tick -> key, oldest first *)
  mutable purged : (int * int) option;
      (* the (generation, stats) pair every entry carries, when one does:
         set by a purge, kept by adds under that pair *)
  mutable tick : int;
  mutable hit_count : int;
  mutable miss_count : int;
  mutable eviction_count : int;
}

let create ~capacity =
  { capacity;
    table = Hashtbl.create 32;
    mutex = Mutex.create ();
    recency = IntMap.empty;
    purged = None;
    tick = 0;
    hit_count = 0;
    miss_count = 0;
    eviction_count = 0 }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect f ~finally:(fun () -> Mutex.unlock t.mutex)

let touch t ks entry =
  t.recency <- IntMap.remove entry.e_tick t.recency;
  t.tick <- t.tick + 1;
  entry.e_tick <- t.tick;
  t.recency <- IntMap.add t.tick ks t.recency

let find ?(count = true) t key =
  locked t @@ fun () ->
  let ks = key_string key in
  match Hashtbl.find_opt t.table ks with
  | Some entry ->
    if count then t.hit_count <- t.hit_count + 1;
    touch t ks entry;
    Some entry.e_plan
  | None ->
    if count then t.miss_count <- t.miss_count + 1;
    None

let add t key plan =
  locked t @@ fun () ->
  let ks = key_string key in
  (match Hashtbl.find_opt t.table ks with
  | Some old ->
    (* replacement: drop the old recency slot, no eviction needed *)
    t.recency <- IntMap.remove old.e_tick t.recency
  | None ->
    if Hashtbl.length t.table >= t.capacity then begin
      match IntMap.min_binding_opt t.recency with
      | Some (oldest_tick, oldest_ks) ->
        Hashtbl.remove t.table oldest_ks;
        t.recency <- IntMap.remove oldest_tick t.recency;
        t.eviction_count <- t.eviction_count + 1
      | None -> ()
    end);
  if t.purged <> Some (key.k_generation, key.k_stats) then t.purged <- None;
  t.tick <- t.tick + 1;
  Hashtbl.replace t.table ks { e_key = key; e_plan = plan; e_tick = t.tick };
  t.recency <- IntMap.add t.tick ks t.recency

(* Nothing to scan while every entry carries the pair the last purge
   kept, which is every compile between two mutations. *)
let purge_stale t ~generation ~stats =
  locked t @@ fun () ->
  if t.purged <> Some (generation, stats) then begin
    t.purged <- Some (generation, stats);
    let stale =
      Hashtbl.fold
        (fun ks entry acc ->
          if entry.e_key.k_generation <> generation
             || entry.e_key.k_stats <> stats
          then (ks, entry.e_tick) :: acc
          else acc)
        t.table []
    in
    List.iter
      (fun (ks, tick) ->
        Hashtbl.remove t.table ks;
        t.recency <- IntMap.remove tick t.recency)
      stale
  end

let size t = locked t @@ fun () -> Hashtbl.length t.table
let hits t = locked t @@ fun () -> t.hit_count
let misses t = locked t @@ fun () -> t.miss_count
let evictions t = locked t @@ fun () -> t.eviction_count
