type t = int

let bits = 32
let modulus = 1 lsl bits

let is_valid id = 0 <= id && id < modulus

let of_name name = P2p_digest.Sha1.to_uint32 (P2p_digest.Sha1.digest_string name)

let add_pow2 id i =
  if i < 0 || i >= bits then invalid_arg "Id.add_pow2: exponent out of range";
  (id + (1 lsl i)) land (modulus - 1)

let distance_cw ~from ~to_ = (to_ - from) land (modulus - 1)

(* (lo, hi) circularly; when lo = hi the interval is the full ring minus the
   endpoint, per Chord's routing convention. *)
let in_interval_oo (x : t) ~lo ~hi =
  if lo = hi then x <> lo
  else if lo < hi then lo < x && x < hi
  else x > lo || x < hi

(* (lo, hi] circularly; when lo = hi it is the full ring, so that a
   single-node system owns every key. *)
let in_interval_oc (x : t) ~lo ~hi =
  if lo = hi then true
  else if lo < hi then lo < x && x <= hi
  else x > lo || x <= hi

let pp ppf id = Format.fprintf ppf "%08x" id

(* The stdlib's hash table, transcribed for int keys: the same bucket
   array, [power_2_above] sizing, head insertion, tail-order resize (never
   in place while a traversal runs) and [fold]/[iter] order, indexed by the
   same [caml_hash 10 100 0 key]. Only the functor's closure calls for
   [equal] and [hash] are gone. *)
module Tbl = struct
  type key = int

  type 'a bucket =
    | Empty
    | Cons of { key : int; mutable data : 'a; mutable next : 'a bucket }

  (* [initial_size] is negated while an [iter] or [fold] runs. *)
  type 'a t = {
    mutable size : int;
    mutable data : 'a bucket array;
    mutable initial_size : int;
  }

  external seeded_hash_param : int -> int -> int -> int -> int = "caml_hash"
    [@@noalloc]

  let[@inline] index h key =
    seeded_hash_param 10 100 0 key land (Array.length h.data - 1)

  let rec power_2_above x n =
    if x >= n then x
    else if x * 2 > Sys.max_array_length then x
    else power_2_above (x * 2) n

  let create n =
    let s = power_2_above 16 n in
    { size = 0; data = Array.make s Empty; initial_size = s }

  let length h = h.size

  let clear h =
    if h.size > 0 then begin
      h.size <- 0;
      Array.fill h.data 0 (Array.length h.data) Empty
    end

  let reset h =
    if Array.length h.data = abs h.initial_size then clear h
    else begin
      h.size <- 0;
      h.data <- Array.make (abs h.initial_size) Empty
    end

  (* Doubles the bucket array, appending each binding at the tail of its
     new bucket in old-array order. Cells are reused only when no
     traversal is walking the old array. *)
  let resize h =
    let odata = h.data in
    let nsize = Array.length odata * 2 in
    if nsize < Sys.max_array_length then begin
      let ndata = Array.make nsize Empty in
      let tails = Array.make nsize Empty in
      let inplace = h.initial_size >= 0 in
      h.data <- ndata;
      let rec insert_bucket = function
        | Empty -> ()
        | Cons { key; data; next } as cell ->
          let cell = if inplace then cell else Cons { key; data; next = Empty } in
          let i = index h key in
          (match tails.(i) with
          | Empty -> ndata.(i) <- cell
          | Cons tail -> tail.next <- cell);
          tails.(i) <- cell;
          insert_bucket next
      in
      Array.iter insert_bucket odata;
      if inplace then
        Array.iter (function Empty -> () | Cons tail -> tail.next <- Empty) tails
    end

  let add h key data =
    let i = index h key in
    h.data.(i) <- Cons { key; data; next = h.data.(i) };
    h.size <- h.size + 1;
    if h.size > Array.length h.data lsl 1 then resize h

  let rec remove_bucket h i key prec = function
    | Empty -> ()
    | Cons { key = k; next; _ } as c ->
      if Int.equal k key then begin
        h.size <- h.size - 1;
        match prec with
        | Empty -> h.data.(i) <- next
        | Cons p -> p.next <- next
      end
      else remove_bucket h i key c next

  let remove h key =
    let i = index h key in
    remove_bucket h i key Empty h.data.(i)

  let rec find_rec key = function
    | Empty -> raise Not_found
    | Cons { key = k; data; next } -> if Int.equal k key then data else find_rec key next

  let find h key = find_rec key h.data.(index h key)

  let rec find_rec_opt key = function
    | Empty -> None
    | Cons { key = k; data; next } ->
      if Int.equal k key then Some data else find_rec_opt key next

  let find_opt h key = find_rec_opt key h.data.(index h key)

  let rec mem_rec key = function
    | Empty -> false
    | Cons { key = k; next; _ } -> Int.equal k key || mem_rec key next

  let mem h key = mem_rec key h.data.(index h key)

  let rec replace_rec key data = function
    | Empty -> true
    | Cons ({ key = k; next; _ } as slot) ->
      if Int.equal k key then begin
        slot.data <- data;
        false
      end
      else replace_rec key data next

  let replace h key data =
    let i = index h key in
    let l = h.data.(i) in
    if replace_rec key data l then begin
      h.data.(i) <- Cons { key; data; next = l };
      h.size <- h.size + 1;
      if h.size > Array.length h.data lsl 1 then resize h
    end

  (* Marks a traversal for its duration (so a resize it triggers copies
     cells instead of relinking them), also when [f] raises. *)
  let traversing h f =
    let outer = h.initial_size < 0 in
    if not outer then h.initial_size <- -h.initial_size;
    match f h.data with
    | result ->
      if not outer then h.initial_size <- -h.initial_size;
      result
    | exception exn when not outer ->
      h.initial_size <- -h.initial_size;
      raise exn

  let iter f h =
    let rec do_bucket = function
      | Empty -> ()
      | Cons { key; data; next } ->
        f key data;
        do_bucket next
    in
    traversing h (fun d ->
        for i = 0 to Array.length d - 1 do
          do_bucket d.(i)
        done)

  let fold f h init =
    let rec do_bucket b acc =
      match b with
      | Empty -> acc
      | Cons { key; data; next } -> do_bucket next (f key data acc)
    in
    traversing h (fun d ->
        let acc = ref init in
        for i = 0 to Array.length d - 1 do
          acc := do_bucket d.(i) !acc
        done;
        !acc)
end

module Pair_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal (a, b) (c, d) = Int.equal a c && Int.equal b d
  let hash = Hashtbl.hash
end)
