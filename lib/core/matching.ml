module Range = Rangeset.Range

type scored = {
  entry : Store.entry;
  score : float;
  jaccard : float;
  recall : float;
}

let score matching ~query entry =
  let jaccard = Range.jaccard query entry.Store.range in
  let recall = Range.containment ~query ~answer:entry.Store.range in
  let score =
    match matching with
    | Config.Jaccard_match -> jaccard
    | Config.Containment_match -> recall
  in
  { entry; score; jaccard; recall }

let better a b =
  if a.score > b.score then a
  else if b.score > a.score then b
  else if
    Range.cardinal a.entry.Store.range <= Range.cardinal b.entry.Store.range
  then a
  else b

(* One pass: the first positive-scoring entry seeds the fold, and every
   later positive one meets the running best via [better], left to right. *)
let best matching ~query entries =
  List.fold_left
    (fun acc entry ->
      let s = score matching ~query entry in
      if s.score > 0.0 then
        match acc with None -> Some s | Some b -> Some (better b s)
      else acc)
    None entries

let is_exact ~query scored = Range.equal scored.entry.Store.range query
