module Grouping = Dqo_exec.Grouping
module Join = Dqo_exec.Join
module Hash_fn = Dqo_hash.Hash_fn

type level = Organelle | Molecule

let level_name = function
  | Organelle -> "physical operator"
  | Molecule -> "node type, hash function, probing"

let biology_analogue = function
  | Organelle -> "organelle"
  | Molecule -> "molecule"

type requirement =
  | Requires_dense
  | Requires_clustered
  | Requires_sorted
  | Requires_known_universe

let requirement_name = function
  | Requires_dense -> "dense key domain"
  | Requires_clustered -> "clustered input"
  | Requires_sorted -> "sorted input"
  | Requires_known_universe -> "known key universe"

let all_requirements =
  [ Requires_dense; Requires_clustered; Requires_sorted;
    Requires_known_universe ]

let bit = function
  | Requires_dense -> 1
  | Requires_clustered -> 2
  | Requires_sorted -> 4
  | Requires_known_universe -> 8

type order = Unordered | Input_order | Key_order

let sorted_output order ~input_sorted =
  match order with
  | Unordered -> false
  | Input_order -> input_sorted
  | Key_order -> true

type 'alg organelle = {
  alg : 'alg;
  name : string;
  requires : requirement list;
  yields : order;
  hashed : bool;
}

type molecule = {
  table : Grouping.table_kind;
  hash : Hash_fn.t;
  multiplier : float;
}

type 'alg cell = { operator : string; organelles : 'alg organelle list }

let row name ?(requires = []) ?(hashed = false) alg yields =
  { alg; name = name alg; requires; yields; hashed }

let grouping =
  let g = row Grouping.name in
  {
    operator = "grouping";
    organelles =
      [
        g Grouping.HG Unordered ~hashed:true;
        g Grouping.OG Input_order ~requires:[ Requires_clustered ];
        g Grouping.SOG Key_order;
        g Grouping.SPHG Key_order ~requires:[ Requires_dense ];
        g Grouping.BSG Key_order ~requires:[ Requires_known_universe ];
      ];
  }

let join =
  let j = row Join.name in
  {
    operator = "join";
    organelles =
      [
        j Join.HJ Unordered ~hashed:true;
        j Join.OJ Key_order ~requires:[ Requires_sorted ];
        j Join.SOJ Key_order;
        j Join.SPHJ Unordered ~requires:[ Requires_dense ];
        j Join.BSJ Unordered ~requires:[ Requires_known_universe ];
      ];
  }

(* Relative hash-path costs, shaped after the measured ablations: open
   addressing beats chaining (fewer cache misses per probe); cheaper
   mixers shave a little more. *)
let molecules =
  List.concat_map
    (fun (table, t) ->
      List.map
        (fun (hash, h) -> { table; hash; multiplier = t *. h })
        [ (Hash_fn.Murmur3, 1.0); (Hash_fn.Fibonacci, 0.95);
          (Hash_fn.Multiply_shift, 0.95) ])
    [ (Grouping.Chaining, 1.0); (Grouping.Linear_probing, 0.75);
      (Grouping.Robin_hood, 0.8) ]

let applicable cell alg ~available =
  match List.find_opt (fun o -> o.alg = alg) cell.organelles with
  | Some o -> List.for_all (fun r -> List.mem r available) o.requires
  | None -> false

let measured ~clustered ~dense =
  (Requires_known_universe :: (if clustered then [ Requires_clustered ] else []))
  @ if dense then [ Requires_dense ] else []

let candidates ~max_level cell =
  let default = List.hd molecules in
  let reached =
    match max_level with Organelle -> [ default ] | Molecule -> molecules
  in
  List.concat_map
    (fun o ->
      if o.hashed then List.map (fun m -> (o, m)) reached else [ (o, default) ])
    cell.organelles

type binding = (string * string) list

let enumerate ~available ~max_level cell =
  List.filter_map
    (fun (o, m) ->
      if List.for_all (fun r -> List.mem r available) o.requires then
        let path d = cell.operator ^ "." ^ d in
        Some
          ((path "algorithm", o.name)
          ::
          (if o.hashed && max_level = Molecule then
             [ (path "layout", Physical.table_name m.table);
               (path "mixer", Hash_fn.name m.hash) ]
           else []))
      else None)
    (candidates ~max_level cell)

let count ~available ~max_level cell =
  List.length (enumerate ~available ~max_level cell)

let pp ppf cell =
  let order = function
    | Unordered -> "unordered"
    | Input_order -> "input's order"
    | Key_order -> "sorted on the key"
  in
  Format.fprintf ppf "@[<v>%s %ss (%s), in candidate order:@," cell.operator
    (biology_analogue Organelle) (level_name Organelle);
  List.iter
    (fun o ->
      let requires =
        match o.requires with
        | [] -> "-"
        | rs -> String.concat ", " (List.map requirement_name rs)
      in
      Format.fprintf ppf "  %-5s requires %-19s yields %s%s@," o.name requires
        (order o.yields)
        (if o.hashed then ", refined by the molecules" else ""))
    cell.organelles;
  Format.fprintf ppf "%ss (%s), cost relative to the first:@,"
    (biology_analogue Molecule) (level_name Molecule);
  List.iter
    (fun m ->
      Format.fprintf ppf "  %-14s x %-14s %.4f@," (Physical.table_name m.table)
        (Hash_fn.name m.hash) m.multiplier)
    molecules;
  Format.fprintf ppf "@]"
