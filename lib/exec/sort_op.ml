let permutation keys =
  (* Whole-column: flat backends sort over their backing array directly
     (read only), chunked backends are materialised once. *)
  Dqo_util.Int_array.stable_permutation (Dqo_data.Int_col.unsafe_array keys)

let by_column r name =
  let keys = Dqo_data.Relation.int_col r name in
  Dqo_data.Relation.take r (permutation keys)
