module Grouping = Dqo_exec.Grouping
module Join = Dqo_exec.Join
module Physical = Dqo_plan.Physical
module Granule = Dqo_plan.Granule

type t = { hash_factor : float; deep_molecules : bool }

let table2 = { hash_factor = 4.0; deep_molecules = false }
let with_hash_factor f = { table2 with hash_factor = f }
let deep = { table2 with deep_molecules = true }

let ln2 = Float.log 2.0
let[@inline] log2 x = if x <= 1.0 then 0.0 else Float.log x /. ln2

let priced_level t =
  if t.deep_molecules then Granule.Molecule else Granule.Organelle

let molecule_multiplier ~table ~hash =
  match
    List.find_opt
      (fun (m : Granule.molecule) -> m.table == table && m.hash == hash)
      Granule.molecules
  with
  | Some m -> m.multiplier
  | None -> 1.0

let effective_hash_factor t ~table ~hash =
  if t.deep_molecules then t.hash_factor *. molecule_multiplier ~table ~hash
  else t.hash_factor

let grouping_cost t ~(impl : Physical.grouping_impl) ~rows ~groups =
  let n = Float.of_int rows in
  let g = Float.of_int groups in
  match impl.g_alg with
  | Grouping.HG ->
    effective_hash_factor t ~table:impl.g_table ~hash:impl.g_hash *. n
  | Grouping.OG -> n
  | Grouping.SOG -> (n *. log2 n) +. n
  | Grouping.SPHG -> n
  | Grouping.BSG -> n *. log2 g

let join_costs t ~(impls : Physical.join_impl array) ~mask ~left_rows
    ~right_rows ~left_distinct costs =
  let r = Float.of_int left_rows in
  let s = Float.of_int right_rows in
  let g = Float.of_int left_distinct in
  let log_r = log2 r and log_s = log2 s and log_g = log2 g in
  for k = 0 to Array.length impls - 1 do
    if mask land (1 lsl k) <> 0 then
      let impl = impls.(k) in
      costs.(k) <-
        (match impl.j_alg with
        | Join.HJ ->
          effective_hash_factor t ~table:impl.j_table ~hash:impl.j_hash
          *. (r +. s)
        | Join.OJ -> r +. s
        | Join.SOJ -> (r *. log_r) +. (s *. log_s) +. r +. s
        | Join.SPHJ -> r +. s
        | Join.BSJ -> (r +. s) *. log_g)
  done

let sort_cost _t ~rows =
  let n = Float.of_int rows in
  n *. log2 n

let scan_cost _t ~rows = Float.of_int rows
let filter_cost _t ~rows = Float.of_int rows
