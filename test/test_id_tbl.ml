(* Chord.Id.Tbl and Chord.Id.Pair_tbl against the generic Hashtbl: the
   same operations must leave the same bindings in the same fold order.
   Every export that walks an int-keyed table (store identifiers, split
   positions, hint and replica sweeps) relies on that order. *)

module Tbl = Chord.Id.Tbl
module Pair_tbl = Chord.Id.Pair_tbl

type op =
  | Add of int * int
  | Replace of int * int
  | Remove of int
  | Clear
  | Reset

let string_of_op = function
  | Add (k, v) -> Printf.sprintf "add %d %d" k v
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Clear -> "clear"
  | Reset -> "reset"

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

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun k v -> Add (k, v)) key_gen small_nat);
        (6, map2 (fun k v -> Replace (k, v)) key_gen small_nat);
        (3, map (fun k -> Remove k) key_gen);
        (1, return Clear);
        (1, return Reset);
      ])

(* Long enough sequences that the tables resize several times. *)
let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map string_of_op ops))
    QCheck.Gen.(list_size (int_range 0 300) op_gen)

let same_as_generic =
  QCheck.Test.make ~name:"same fold order and length as the generic Hashtbl"
    ~count:300 arb_ops (fun ops ->
      let generic = Hashtbl.create 1 and mono = Tbl.create 1 in
      let cons k v acc = (k, v) :: acc in
      let bindings_g () = Hashtbl.fold cons generic [] in
      let bindings_m () = Tbl.fold cons mono [] in
      List.for_all
        (fun op ->
          (match op with
          | Add (k, v) ->
            Hashtbl.add generic k v;
            Tbl.add mono k v
          | Replace (k, v) ->
            Hashtbl.replace generic k v;
            Tbl.replace mono k v
          | Remove k ->
            Hashtbl.remove generic k;
            Tbl.remove mono k
          | Clear ->
            Hashtbl.clear generic;
            Tbl.clear mono
          | Reset ->
            Hashtbl.reset generic;
            Tbl.reset mono);
          Hashtbl.length generic = Tbl.length mono
          && bindings_g () = bindings_m ())
        ops)

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
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 14 |])
      pair_same_as_generic;
  ]
