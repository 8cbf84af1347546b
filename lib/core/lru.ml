module IntMap = Map.Make (Int)

type 'a entry = { value : 'a; mutable tick : int }

type 'a t = {
  capacity : int;
  table : (string, 'a entry) Hashtbl.t;
  mutable recency : string IntMap.t;  (* tick -> key, oldest first *)
  mutable tick : int;
}

let create ~capacity =
  { capacity; table = Hashtbl.create 32; recency = IntMap.empty; tick = 0 }

let find t key =
  match Hashtbl.find t.table key with
  | entry ->
    t.recency <- IntMap.remove entry.tick t.recency;
    t.tick <- t.tick + 1;
    entry.tick <- t.tick;
    t.recency <- IntMap.add t.tick key t.recency;
    Some entry.value
  | exception Not_found -> None

let add t key value =
  let evicted =
    match Hashtbl.find_opt t.table key with
    | Some old ->
      (* replacement: drop the old recency slot, no eviction needed *)
      t.recency <- IntMap.remove old.tick t.recency;
      false
    | None when Hashtbl.length t.table >= t.capacity -> (
      match IntMap.min_binding_opt t.recency with
      | Some (oldest_tick, oldest) ->
        Hashtbl.remove t.table oldest;
        t.recency <- IntMap.remove oldest_tick t.recency;
        true
      | None -> false)
    | None -> false
  in
  t.tick <- t.tick + 1;
  Hashtbl.replace t.table key { value; tick = t.tick };
  t.recency <- IntMap.add t.tick key t.recency;
  evicted

let remove_if t p =
  Hashtbl.filter_map_inplace
    (fun key entry ->
      if p key entry.value then begin
        t.recency <- IntMap.remove entry.tick t.recency;
        None
      end
      else Some entry)
    t.table

let length t = Hashtbl.length t.table
