(* Chord.Id.Tbl and Chord.Id.Pair_tbl against the generic Hashtbl: the
   same operations must leave the same bindings in the same fold order,
   answer every lookup alike, and visit the same bindings when a traversal
   adds and removes as it walks (the stdlib then resizes by copying, not
   in place). Every export that walks an int-keyed table (store
   identifiers, split positions, hint and replica sweeps) relies on that
   order. *)

module Tbl = Chord.Id.Tbl
module Pair_tbl = Chord.Id.Pair_tbl

type op =
  | Add of int * int
  | Replace of int * int
  | Remove of int
  | Clear
  | Reset
  | Traverse of bool * op list
      (** [iter] ([false]) or [fold] ([true]) over the table, applying
          the next listed op at each visited binding *)

let rec string_of_op = function
  | Add (k, v) -> Printf.sprintf "add %d %d" k v
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Clear -> "clear"
  | Reset -> "reset"
  | Traverse (fold, ops) ->
    Printf.sprintf "%s [%s]"
      (if fold then "fold" else "iter")
      (String.concat "; " (List.map string_of_op ops))

(* A small pool of keys, so operations collide and replace: negatives,
   0, ring identifiers and keys at or beyond 2^32. *)
let key_gen =
  QCheck.Gen.(
    oneof
      [
        int_range (-8) 8;
        int_range 0 63;
        map (fun i -> (1 lsl 32) + i) (int_range (-2) 4);
        oneofl [ min_int; max_int; -(1 lsl 40); 1 lsl 33; 0xFFFFFFFF ];
      ])

(* Probed after every op, present or not. *)
let probe_keys = [ 0; 1; -1; 63; min_int; max_int; 1 lsl 32; 0xFFFFFFFF ]

let mutation_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun k v -> Add (k, v)) key_gen small_nat);
        (6, map2 (fun k v -> Replace (k, v)) key_gen small_nat);
        (3, map (fun k -> Remove k) key_gen);
      ])

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (15, mutation_gen);
        (1, return Clear);
        (1, return Reset);
        ( 1,
          map2
            (fun fold ops -> Traverse (fold, ops))
            bool
            (list_size (int_range 0 40) mutation_gen) );
      ])

(* Long enough sequences that the tables resize several times. *)
let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map string_of_op ops))
    QCheck.Gen.(list_size (int_range 0 300) op_gen)

(* The same op on both tables. A traversal returns the bindings it
   visited, in order; other ops return []. *)
let apply generic mono op =
  match op with
  | Add (k, v) ->
    Hashtbl.add generic k v;
    Tbl.add mono k v;
    ([], [])
  | Replace (k, v) ->
    Hashtbl.replace generic k v;
    Tbl.replace mono k v;
    ([], [])
  | Remove k ->
    Hashtbl.remove generic k;
    Tbl.remove mono k;
    ([], [])
  | Clear ->
    Hashtbl.clear generic;
    Tbl.clear mono;
    ([], [])
  | Reset ->
    Hashtbl.reset generic;
    Tbl.reset mono;
    ([], [])
  | Traverse (fold, ops) ->
    (* Each side runs the listed ops on itself only, one per visit. *)
    let visit_with on_self =
      let pending = ref ops and seen = ref [] in
      let visit k v =
        seen := (k, v) :: !seen;
        match !pending with
        | [] -> ()
        | op :: rest ->
          pending := rest;
          on_self op
      in
      (visit, fun () -> List.rev !seen)
    in
    let on_generic = function
      | Add (k, v) -> Hashtbl.add generic k v
      | Replace (k, v) -> Hashtbl.replace generic k v
      | Remove k -> Hashtbl.remove generic k
      | _ -> ()
    and on_mono = function
      | Add (k, v) -> Tbl.add mono k v
      | Replace (k, v) -> Tbl.replace mono k v
      | Remove k -> Tbl.remove mono k
      | _ -> ()
    in
    let visit_g, seen_g = visit_with on_generic
    and visit_m, seen_m = visit_with on_mono in
    if fold then begin
      Hashtbl.fold (fun k v () -> visit_g k v) generic ();
      Tbl.fold (fun k v () -> visit_m k v) mono ()
    end
    else begin
      Hashtbl.iter visit_g generic;
      Tbl.iter visit_m mono
    end;
    (seen_g (), seen_m ())

let key_of = function
  | Add (k, _) | Replace (k, _) | Remove k -> [ k ]
  | Clear | Reset | Traverse _ -> []

(* Every observable of the two tables agrees: length, fold order, and
   find/find_opt/mem on the op's key and the probe keys. *)
let agree generic mono op =
  let cons k v acc = (k, v) :: acc in
  let find_g k = try Some (Hashtbl.find generic k) with Not_found -> None in
  let find_m k = try Some (Tbl.find mono k) with Not_found -> None in
  Hashtbl.length generic = Tbl.length mono
  && Hashtbl.fold cons generic [] = Tbl.fold cons mono []
  && List.for_all
       (fun k ->
         find_g k = find_m k
         && Hashtbl.find_opt generic k = Tbl.find_opt mono k
         && Hashtbl.mem generic k = Tbl.mem mono k)
       (key_of op @ probe_keys)

let same_as_generic =
  QCheck.Test.make
    ~name:
      "same fold order and length as the generic Hashtbl, and the same \
       lookups and traversals"
    ~count:300 arb_ops (fun ops ->
      let generic = Hashtbl.create 1 and mono = Tbl.create 1 in
      List.for_all
        (fun op ->
          let seen_g, seen_m = apply generic mono op in
          seen_g = seen_m && agree generic mono op)
        ops)

(* Growth from [create 1] through several doublings (16 -> 2048 buckets),
   with removes mixed in. Whenever the next add would resize, a traversal
   adds and removes while it walks, so the resize happens mid-traversal. *)
let resizes_from_size_one () =
  let generic = Hashtbl.create 1 and mono = Tbl.create 1 in
  let check op =
    let seen_g, seen_m = apply generic mono op in
    Alcotest.(check bool) (string_of_op op) true
      (seen_g = seen_m && agree generic mono op)
  in
  (* The first traversal a table ever sees resizes it. *)
  let g = Hashtbl.create 1 and m = Tbl.create 1 in
  for k = 0 to 31 do
    Hashtbl.add g k k;
    Tbl.add m k k
  done;
  let adds = Traverse (false, List.init 40 (fun j -> Add (100 + j, j))) in
  let seen_g, seen_m = apply g m adds in
  Alcotest.(check bool) "first traversal resizes alike" true
    (seen_g = seen_m && agree g m adds);
  let traversals = ref 0 in
  for i = 0 to 2047 do
    let k = if i mod 3 = 0 then (1 lsl 32) + i else (i * 7919) - 4000 in
    check (Add (k, i));
    if i mod 5 = 0 then check (Remove (((i - 5) * 7919) - 4000));
    let n = Tbl.length mono in
    if n >= 32 && n land (n - 1) = 0 then begin
      incr traversals;
      check
        (Traverse
           ( !traversals mod 2 = 0,
             List.init 40 (fun j ->
                 if j mod 4 = 3 then Remove (-j - i + 3) else Add (-j - i, j)) ))
    end
  done;
  Alcotest.(check bool) "traversed across resizes" true (!traversals >= 3);
  Alcotest.(check bool) "grew past 1024 bindings" true (Tbl.length mono > 1024)

let pair_same_as_generic =
  QCheck.Test.make ~name:"pair table: same fold order as the generic Hashtbl"
    ~count:200
    QCheck.(list (pair (make key_gen) (make key_gen)))
    (fun keys ->
      let generic = Hashtbl.create 1 and mono = Pair_tbl.create 1 in
      List.iteri
        (fun i key ->
          Hashtbl.replace generic key i;
          Pair_tbl.replace mono key i)
        keys;
      Hashtbl.length generic = Pair_tbl.length mono
      && Hashtbl.fold (fun k v acc -> (k, v) :: acc) generic []
         = Pair_tbl.fold (fun k v acc -> (k, v) :: acc) mono [])

let suite =
  [
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 14 |])
      same_as_generic;
    Alcotest.test_case "resizes from size one" `Quick resizes_from_size_one;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 14 |])
      pair_same_as_generic;
  ]
