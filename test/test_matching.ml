(* Best-match selection: scoring under both policies, tie-breaking,
   disjoint-candidate rejection, exactness. *)

module Range = Rangeset.Range
module M = P2prange.Matching

let mk lo hi = Range.make ~lo ~hi
let entry lo hi = { P2prange.Store.range = mk lo hi; partition = None }

let query = mk 30 50

let scores_both_measures () =
  let s = M.score P2prange.Config.Jaccard_match ~query (entry 30 49) in
  Alcotest.(check (float 1e-9)) "jaccard 20/21" (20.0 /. 21.0) s.M.jaccard;
  Alcotest.(check (float 1e-9)) "recall 20/21" (20.0 /. 21.0) s.M.recall;
  Alcotest.(check (float 1e-9)) "score follows policy" s.M.jaccard s.M.score;
  let s' = M.score P2prange.Config.Containment_match ~query (entry 0 1000) in
  Alcotest.(check (float 1e-9)) "broad range: full recall" 1.0 s'.M.recall;
  Alcotest.(check (float 1e-9)) "containment score = recall" 1.0 s'.M.score;
  Alcotest.(check bool) "but poor jaccard" true (s'.M.jaccard < 0.05)

let policies_pick_differently () =
  (* Candidate A: nearly identical (high Jaccard, recall < 1).
     Candidate B: broad superset (low Jaccard, recall = 1). *)
  let a = entry 31 51 and b = entry 0 500 in
  (match M.best P2prange.Config.Jaccard_match ~query [ a; b ] with
  | Some s ->
    Alcotest.(check bool) "jaccard prefers the twin" true
      (Range.equal s.M.entry.P2prange.Store.range (mk 31 51))
  | None -> Alcotest.fail "must match");
  match M.best P2prange.Config.Containment_match ~query [ a; b ] with
  | Some s ->
    Alcotest.(check bool) "containment prefers the superset" true
      (Range.equal s.M.entry.P2prange.Store.range (mk 0 500))
  | None -> Alcotest.fail "must match"

let disjoint_candidates_rejected () =
  Alcotest.(check bool) "no match among disjoint" true
    (M.best P2prange.Config.Jaccard_match ~query [ entry 100 200; entry 300 400 ]
    = None);
  Alcotest.(check bool) "empty list" true
    (M.best P2prange.Config.Jaccard_match ~query [] = None)

let tie_breaks_toward_smaller () =
  (* Two supersets with recall 1: containment must prefer the smaller
     (less data shipped). *)
  let small = entry 25 55 and big = entry 0 1000 in
  match M.best P2prange.Config.Containment_match ~query [ big; small ] with
  | Some s ->
    Alcotest.(check bool) "smaller superset wins the tie" true
      (Range.equal s.M.entry.P2prange.Store.range (mk 25 55))
  | None -> Alcotest.fail "must match"

let exactness () =
  let e = M.score P2prange.Config.Jaccard_match ~query (entry 30 50) in
  Alcotest.(check bool) "exact" true (M.is_exact ~query e);
  let near = M.score P2prange.Config.Jaccard_match ~query (entry 30 51) in
  Alcotest.(check bool) "near is not exact" false (M.is_exact ~query near)

let best_is_max_score () =
  let candidates = [ entry 10 70; entry 28 52; entry 30 49; entry 45 90 ] in
  match M.best P2prange.Config.Jaccard_match ~query candidates with
  | Some s ->
    List.iter
      (fun c ->
        let c' = M.score P2prange.Config.Jaccard_match ~query c in
        Alcotest.(check bool) "no candidate beats the winner" true
          (c'.M.score <= s.M.score +. 1e-12))
      candidates
  | None -> Alcotest.fail "must match"

(* The reference [best]: score every entry, drop the zero scores, fold
   [better] left to right from the first survivor. *)
let reference_best matching ~query entries =
  let scored = List.map (M.score matching ~query) entries in
  match List.filter (fun s -> s.M.score > 0.0) scored with
  | [] -> None
  | first :: rest -> Some (List.fold_left M.better first rest)

(* Ranges drawn from a tiny domain, so buckets are full of equal scores,
   equal cardinalities, exact duplicates and disjoint (zero-score)
   entries — every tie-break path. *)
let bucket_gen =
  QCheck.Gen.(
    let range =
      let* lo = int_range 0 24 in
      let* width = int_range 0 6 in
      return (lo, lo + width)
    in
    pair range (list_size (int_range 0 12) range))

let arb_bucket =
  QCheck.make
    ~print:(fun ((qlo, qhi), rs) ->
      Printf.sprintf "query [%d,%d] bucket %s" qlo qhi
        (String.concat ";"
           (List.map (fun (lo, hi) -> Printf.sprintf "[%d,%d]" lo hi) rs)))
    bucket_gen

let best_matches_reference matching =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "single-pass best equals the reference (%s)"
         (match matching with
         | P2prange.Config.Jaccard_match -> "jaccard"
         | P2prange.Config.Containment_match -> "containment"))
    ~count:500 arb_bucket
    (fun ((qlo, qhi), rs) ->
      let query = mk qlo qhi in
      (* Fresh records, so equal ranges are still distinguishable by
         identity: the winner must be the very same entry. *)
      let entries = List.map (fun (lo, hi) -> entry lo hi) rs in
      match
        (M.best matching ~query entries, reference_best matching ~query entries)
      with
      | None, None -> true
      | Some a, Some b -> a.M.entry == b.M.entry && a.M.score = b.M.score
      | Some _, None | None, Some _ -> false)

let suite =
  [
    Alcotest.test_case "scoring computes both measures" `Quick scores_both_measures;
    Alcotest.test_case "policies pick different winners" `Quick
      policies_pick_differently;
    Alcotest.test_case "disjoint candidates rejected" `Quick
      disjoint_candidates_rejected;
    Alcotest.test_case "ties break toward the smaller range" `Quick
      tie_breaks_toward_smaller;
    Alcotest.test_case "exactness" `Quick exactness;
    Alcotest.test_case "best maximizes the score" `Quick best_is_max_score;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 28 |])
      (best_matches_reference P2prange.Config.Jaccard_match);
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 28 |])
      (best_matches_reference P2prange.Config.Containment_match);
  ]
