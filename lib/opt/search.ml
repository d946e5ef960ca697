module Props = Dqo_plan.Props
module Physical = Dqo_plan.Physical
module Granule = Dqo_plan.Granule
module Logical = Dqo_plan.Logical
module Model = Dqo_cost.Model
module Cardinality = Dqo_cost.Cardinality
module Filter = Dqo_exec.Filter
module Bitset = Dqo_util.Bitset
module Pool = Dqo_par.Pool
module Metrics = Dqo_obs.Metrics
module Feedback = Dqo_cost.Feedback
module Learner = Dqo_learn.Learner

(* Join-DP tables keyed by relation subsets: monomorphic equality and
   hashing instead of the polymorphic ones on boxed bitsets. *)
module Subsets = Hashtbl.Make (Bitset)

type mode = Shallow | Deep

(* One entry per DP step (base scan, select, project, group-by, or join
   subset): how many candidate plans the step generated, how many sort
   enforcers it added, and what survived Pareto pruning. *)
type trace_step = {
  step : string;
  generated : int;
  enforcers : int;
  kept : int;
  pruned : int;
}

(* One DP level: all join subsets of the same cardinality, solved as
   independent subproblems (possibly fanned out over a domain pool)
   between two memo barriers. *)
type level_stat = {
  level : int;
  subproblems : int;
  level_generated : int;
  level_kept : int;
  level_pruned : int;
  level_beam_pruned : int;
  level_wall_ms : float;
}

type stats = {
  plans_considered : int;
  candidates_built : int;
  pareto_kept : int;
  enforcers_added : int;
  candidates_pruned : int;
  dp_domains : int;
  beam_width : int option;
  learner_scored : int;
  learner_pruned : int;
  learner_cold : bool;
  trace : trace_step list; (* in evaluation order *)
  levels : level_stat list; (* join-DP levels, ascending cardinality *)
}

(* One operator kind's candidates from {!Granule}, in enumeration order,
   built once per search: their implementations, the orders they yield,
   and [fits.(av)], the bit mask of those whose requirements the
   available-requirement mask [av] grants.  The candidate builders and
   the counters read the same masks. *)
type 'impl candidates = {
  impls : 'impl array;
  yields : Granule.order array;
  fits : int array;
}

type ctx = {
  mode : mode;
  model : Model.t;
  groupings : Physical.grouping_impl candidates;
  joins : Physical.join_impl candidates;
  catalog : Catalog.t;
  interesting : string list;
  pool : Pool.t option;
  metrics : Metrics.t option;
  (* Correction factors learned from earlier executions; read-only
     during a search, so sharing it across DP workers is safe. *)
  feedback : Feedback.t option;
  (* Learned value model gating the join DP: an immutable weight
     snapshot (training never touches it mid-search, so the pooled
     search stays byte-identical) and the beam width k — only the k
     best-scored entries of each join subset survive into the next
     level. *)
  learner : (Learner.snapshot * int) option;
  (* Pre-planned frontiers spliced in under a pseudo relation name —
     the hierarchical optimiser's stitched join plans.  A [Scan] of a
     listed name returns its frontier verbatim. *)
  virtuals : (string * Pareto.entry list) list;
  mutable considered : int;
  mutable built : int; (* of [considered], the entries allocated *)
  mutable enforced : int;
  mutable pruned : int;
  mutable scored : int; (* entries the learner scored *)
  mutable beam_pruned : int; (* entries the beam gate cut *)
  mutable steps : trace_step list; (* reverse evaluation order *)
  mutable levels : level_stat list; (* reverse level order *)
}

(* A private sub-context for one DP subproblem: counters start at zero
   and are folded back into the parent at the level barrier, in subset
   order, so totals and traces never depend on worker scheduling. *)
let sub_ctx ctx =
  {
    ctx with
    pool = None;
    metrics = None;
    considered = 0;
    built = 0;
    enforced = 0;
    pruned = 0;
    scored = 0;
    beam_pruned = 0;
    steps = [];
    levels = [];
  }

(* ------------------------------------------------------------------ *)
(* Interesting columns: any column a sort could later pay off on.      *)

let interesting_columns l =
  let rec go acc = function
    | Logical.Scan _ -> acc
    | Logical.Select (t, _, _) | Logical.Project (t, _) -> go acc t
    | Logical.Join (a, b, lc, rc) -> go (go (lc :: rc :: acc) a) b
    | Logical.Group_by (t, key, _) -> go (key :: acc) t
  in
  List.sort_uniq String.compare (go [] l)

(* ------------------------------------------------------------------ *)
(* Entry helpers.                                                      *)

let count ctx n =
  ctx.considered <- ctx.considered + n;
  ctx.built <- ctx.built + n

let record_step ctx step ~generated ~enforcers kept_entries =
  let kept = List.length kept_entries in
  let pruned = max 0 (generated + enforcers - kept) in
  ctx.enforced <- ctx.enforced + enforcers;
  ctx.pruned <- ctx.pruned + pruned;
  ctx.steps <- { step; generated; enforcers; kept; pruned } :: ctx.steps;
  kept_entries

let distinct_or props col default =
  match Props.distinct_of props col with Some d -> d | None -> default

(* After an operator produced [rows] tuples, no column can have more
   distinct values than that.  Returns [props] itself when no count
   changes, and reuses every column record that keeps its count. *)
let scale_columns (props : Props.t) rows =
  let cap = max rows 0 in
  let fits (_, (c : Props.column)) = c.Props.distinct <= cap in
  if List.for_all fits props.Props.columns then props
  else
    {
      props with
      Props.columns =
        List.map
          (fun ((n, (c : Props.column)) as nc) ->
            if fits nc then nc else (n, { c with Props.distinct = cap }))
          props.Props.columns;
    }

let base_entry ctx name =
  let ti = Catalog.find ctx.catalog name in
  let props =
    match ctx.mode with
    | Shallow -> Props.shallow ti.Catalog.props
    | Deep -> ti.Catalog.props
  in
  {
    Pareto.plan = Physical.Table_scan name;
    cost = 0.0;
    props;
    rows = ti.Catalog.rows;
  }

(* Sort enforcers: for every column of [columns] the entry knows about
   and is not already sorted on, offer a sorted variant. *)
let enforcer_variants ctx columns entries =
  List.concat_map
    (fun (e : Pareto.entry) ->
      List.filter_map
        (fun col ->
          match Props.column e.Pareto.props col with
          | None -> None
          | Some _ ->
            if Props.sorted_on e.Pareto.props col then None
            else
              Some
                {
                  Pareto.plan = Physical.Sort_enforcer (e.Pareto.plan, col);
                  cost =
                    e.Pareto.cost
                    +. Model.sort_cost ctx.model ~rows:e.Pareto.rows;
                  props = Props.with_sort e.Pareto.props col;
                  rows = e.Pareto.rows;
                })
        columns)
    entries

(* Prune [entries], add sort enforcers on the interesting columns of
   the survivors, prune again, and record the whole step in the DP
   trace. *)
let with_enforcers ctx step ~generated entries =
  let survivors = Pareto.add_all [] entries in
  let enforced = enforcer_variants ctx ctx.interesting survivors in
  count ctx (List.length enforced);
  let merged = Pareto.add_all survivors enforced in
  record_step ctx step ~generated ~enforcers:(List.length enforced) merged

(* ------------------------------------------------------------------ *)
(* The component table under the search's cut.                         *)

let max_level mode model =
  match mode with
  | Shallow -> Granule.Organelle
  | Deep -> Model.priced_level model

let candidates ~max_level cell impl =
  let cs = Array.of_list (Granule.candidates ~max_level cell) in
  let need =
    Array.map
      (fun (o, _) ->
        List.fold_left (fun m r -> m lor Granule.bit r) 0 o.Granule.requires)
      cs
  in
  let fits av =
    let mask = ref 0 in
    Array.iteri
      (fun i n -> if n land av = n then mask := !mask lor (1 lsl i))
      need;
    !mask
  in
  {
    impls = Array.map (fun (o, m) -> impl o.Granule.alg m) cs;
    yields = Array.map (fun (o, _) -> o.Granule.yields) cs;
    fits = Array.init (1 lsl List.length Granule.all_requirements) fits;
  }

(* ------------------------------------------------------------------ *)
(* Select / project.                                                   *)

let default_selectivity props col p rows =
  match Props.column props col with
  | Some c when c.Props.hi >= c.Props.lo ->
    Filter.selectivity p ~lo:c.Props.lo ~hi:c.Props.hi
  | Some _ | None -> (
    match p with
    | Filter.Eq _ -> 1.0 /. Float.of_int (max 1 rows)
    | Filter.Ne _ ->
      (* <> excludes one of the [distinct] values, not nothing: a
         selectivity of 1.0 would leave inequality filters free and
         mis-rank plans built on top of them. *)
      let d =
        match Props.distinct_of props col with
        | Some d -> max 1 d
        | None -> max 1 rows
      in
      1.0 -. (1.0 /. Float.of_int d)
    | Filter.Lt _ | Filter.Le _ | Filter.Gt _ | Filter.Ge _ -> 0.33
    | Filter.Between _ -> 0.25)

(* Value bounds surviving a predicate on a column currently spanning
   [lo, hi].  Shared by [narrow_column] (which rewrites the property
   vector) and the selectivity arithmetic above (via
   [Filter.selectivity], which integrates the same bounds). *)
let narrowed_bounds ~lo ~hi (p : Filter.predicate) =
  match p with
  | Filter.Eq x -> (max lo x, min hi x)
  | Filter.Between (a, b) -> (max lo a, min hi b)
  | Filter.Lt x -> (lo, min hi (x - 1))
  | Filter.Le x -> (lo, min hi x)
  | Filter.Gt x -> (max lo (x + 1), hi)
  | Filter.Ge x -> (max lo x, hi)
  | Filter.Ne _ -> (lo, hi)

let narrow_column props col p =
  let update (c : Props.column) =
    match p with
    | Filter.Eq x -> { c with Props.lo = x; hi = x; distinct = 1 }
    | Filter.Ne _ ->
      (* Exactly one distinct value is filtered out. *)
      { c with Props.distinct = max 1 (c.Props.distinct - 1) }
    | Filter.Between _ | Filter.Lt _ | Filter.Le _ | Filter.Gt _
    | Filter.Ge _ ->
      (* One- and two-sided ranges narrow the bounds alike; leaving
         [Lt]/[Le]/[Gt]/[Ge] untouched made a range filter followed by a
         [Between] or a join over-count its distinct values. *)
      if c.Props.hi < c.Props.lo then c (* bounds unknown (shallow) *)
      else
        let lo, hi = narrowed_bounds ~lo:c.Props.lo ~hi:c.Props.hi p in
        let span = max 0 (hi - lo + 1) in
        { c with Props.lo; hi; distinct = min c.Props.distinct span }
  in
  {
    props with
    Props.columns =
      List.map
        (fun ((n, c) as nc) -> if String.equal n col then (n, update c) else nc)
        props.Props.columns;
  }

(* Apply a learned correction factor to an operator's estimate; a miss
   (no feedback, unresolvable column) leaves the estimate untouched. *)
let correct_filter ctx col p est =
  match ctx.feedback with
  | None -> est
  | Some fb -> (
    match Catalog.relation_of_column ctx.catalog col with
    | Some relation ->
      Feedback.corrected fb (Feedback.filter_key ~relation ~column:col p) est
    | None -> est)

let correct_join ctx c1 c2 est =
  match ctx.feedback with
  | None -> est
  | Some fb -> Feedback.corrected fb (Feedback.join_key c1 c2) est

let correct_group ctx key est =
  match ctx.feedback with
  | None -> est
  | Some fb -> (
    match Catalog.relation_of_column ctx.catalog key with
    | Some relation ->
      Feedback.corrected fb (Feedback.group_key ~relation ~column:key) est
    | None -> est)

let select_entry ctx col p (e : Pareto.entry) =
  let sel = default_selectivity e.Pareto.props col p e.Pareto.rows in
  let est = Cardinality.filter ~rows:e.Pareto.rows ~selectivity:sel in
  (* A corrected filter estimate still cannot exceed its input. *)
  let rows = min e.Pareto.rows (correct_filter ctx col p est) in
  let props = scale_columns (narrow_column e.Pareto.props col p) rows in
  {
    Pareto.plan = Physical.Filter_op (e.Pareto.plan, col, p);
    cost = e.Pareto.cost +. Model.filter_cost ctx.model ~rows:e.Pareto.rows;
    props;
    rows;
  }

let project_entry cols (e : Pareto.entry) =
  {
    e with
    Pareto.plan = Physical.Project_op (e.Pareto.plan, cols);
    props = Props.restrict e.Pareto.props cols;
  }

(* ------------------------------------------------------------------ *)
(* The join DP's entries: one column layout per subset.                *)

(* Inside the join DP each subset has one column layout
   ({!Props.Layout}): the names of its leaves' columns.  Its entries
   carry their property vectors over that layout, so the union of two
   halves is an index-mapped copy, dominance an element-wise compare and
   a column lookup an array read.  Entries built by one union, and those
   derived from one another by an order (a sort enforcer, an ordered
   join output), share their class physically, exactly as they shared
   their property lists, so "same class" stays one physical comparison.
   Leaf frontiers are converted on the way in and the root frontier back
   to {!Pareto.entry} on the way out, one column list per class, in the
   order {!Props.union_columns} builds: the plan's left-first leaf
   order, deduplicated by name. *)
module Layout = Props.Layout

type dentry = {
  plan : Physical.t;
  cost : float;
  props : Layout.t;
  rows : int;
}

let dominates (a : dentry) (b : dentry) =
  a.cost <= b.cost && Layout.dominates a.props b.props

let add set x = Pareto.insert ~dominates set x

(* What a column grants: a known key universe, and density. *)
let known_available ~dense =
  Granule.bit Granule.Requires_known_universe
  lor if dense then Granule.bit Granule.Requires_dense else 0

(* The requirements a grouping's input grants on its key. *)
let group_available props key =
  (match Props.column props key with
  | Some c -> known_available ~dense:c.Props.dense
  | None -> 0)
  lor
  if Props.clustered_on props key then Granule.bit Granule.Requires_clustered
  else 0

(* The requirements a pair joined on [c1 = c2] grants: [avail] is what
   the left entry's record of [c1] grants, [both_sorted] whether the
   left entry is sorted on [c1] and the right one on [c2]. *)
let join_available ~avail ~both_sorted =
  avail lor if both_sorted then Granule.bit Granule.Requires_sorted else 0

(* ------------------------------------------------------------------ *)
(* Join candidates for one split of a subset.                          *)

let rec popcount m = if m = 0 then 0 else 1 + popcount (m land (m - 1))

(* One join column's facts about each entry of a frontier: whether it
   is sorted on the column, its twin for a join on it (see {!twins}),
   its distinct count there (its rows when it lacks the column), and
   what its record grants.  Worked out once per frontier for every
   column a join of its subset can be on, not in every split. *)
type probe = {
  on_sorted : bool array;
  twin : int array;
  distinct : int array;
  avail : int array;
}

(* Each element's class of equal ints, numbered by first appearance,
   and each class's value. *)
let classify a =
  let seen = ref [] and n = ref 0 in
  let cls =
    Array.map
      (fun (v : int) ->
        let rec find = function
          | (w, c) :: rest -> if w = v then c else find rest
          | [] ->
            let c = !n in
            incr n;
            seen := (v, c) :: !seen;
            c
        in
        find !seen)
      a
  in
  (cls, Array.of_list (List.rev_map fst !seen))

(* A memoised subset frontier as the join DP reads it: its entries, also
   as an array, with their classes, twin slots (class and rows) and
   join-column probes worked out once. *)
type frontier = {
  entries : dentry list;
  arr : dentry array;
  layout : Layout.layout;
  ids : int array; (* class of each entry *)
  classes : int;
  slot : int array; (* twin slot of each entry *)
  slots : int;
  rows_class : int array; (* each entry's class of equal rows *)
  rows_vals : int array; (* each rows class's rows *)
  probes : (int * probe) list; (* by join column name id *)
}

(* A join's output forgets its inputs' orders ({!Props.union_columns}
   resets them); only OJ reads them, and only on the join column.  So
   an entry [t] of the same class as [e], with the same rows, a
   strictly lower cost, and — when [e] is sorted on the join column —
   that order too, is a {e twin} of [e]: every candidate [e] would form
   in a join on that column is matched by [t]'s candidate of the same
   algorithm, with equal properties and rows and a lower cost.
   [twins f sorted] maps each entry of [f] to its cheapest twin, or
   [-1]; [sorted.(i)] says whether entry [i] is sorted on the join
   column. *)
let twins f sorted =
  let cheapest = Array.make f.slots (-1) in
  let cheapest_sorted = Array.make f.slots (-1) in
  let cheaper i j = j < 0 || f.arr.(i).cost < f.arr.(j).cost in
  Array.iteri
    (fun i sl ->
      if cheaper i cheapest.(sl) then cheapest.(sl) <- i;
      if sorted.(i) && cheaper i cheapest_sorted.(sl) then
        cheapest_sorted.(sl) <- i)
    f.slot;
  Array.mapi
    (fun i sl ->
      let t = if sorted.(i) then cheapest_sorted.(sl) else cheapest.(sl) in
      if t >= 0 && f.arr.(t).cost < f.arr.(i).cost then t else -1)
    f.slot

let probe f c =
  let l = f.layout in
  let on_sorted =
    Array.map (fun (e : dentry) -> e.props.Layout.sorted = c) f.arr
  in
  {
    on_sorted;
    twin = twins f on_sorted;
    distinct =
      Array.map (fun e -> Layout.distinct_or l e.props c e.rows) f.arr;
    avail =
      Array.map
        (fun e ->
          if Layout.has l e.props c then
            known_available ~dense:(Layout.dense_on l e.props c)
          else 0)
        f.arr;
  }

(* [entries] as a frontier over [layout], with probes on the name ids
   [joined]. *)
let frontier layout ~joined entries =
  let arr = Array.of_list entries in
  let ids, classes =
    Layout.classes (Array.map (fun (e : dentry) -> e.props) arr)
  in
  let by_class = Array.make classes [] in
  let slots = ref 0 in
  let slot =
    Array.mapi
      (fun i (e : dentry) ->
        let rec find = function
          | [] ->
            let sl = !slots in
            incr slots;
            by_class.(ids.(i)) <- (e.rows, sl) :: by_class.(ids.(i));
            sl
          | (rows, sl) :: rest -> if rows = e.rows then sl else find rest
        in
        find by_class.(ids.(i)))
      arr
  in
  let rows_class, rows_vals =
    classify (Array.map (fun (e : dentry) -> e.rows) arr)
  in
  let f =
    {
      entries;
      arr;
      layout;
      ids;
      classes;
      slot;
      slots = !slots;
      rows_class;
      rows_vals;
      probes = [];
    }
  in
  { f with probes = List.map (fun c -> (c, probe f c)) joined }

(* A leaf frontier as DP entries over one layout, every name of its
   entries' column lists; one class per physically shared list.
   Registers the names and co-ordering pairs it meets. *)
let of_leaf names ~joined (entries : Pareto.entry list) =
  let arr = Array.of_list entries in
  let layout, props =
    Layout.of_props names (Array.map (fun (e : Pareto.entry) -> e.Pareto.props) arr)
  in
  frontier layout ~joined
    (List.init (Array.length arr) (fun i ->
         let e = arr.(i) in
         {
           plan = e.Pareto.plan;
           cost = e.Pareto.cost;
           props = props.(i);
           rows = e.Pareto.rows;
         }))

let to_entries names f =
  let export = Layout.exporter names f.layout in
  List.map
    (fun (e : dentry) ->
      {
        Pareto.plan = e.plan;
        cost = e.cost;
        props = export e.props;
        rows = e.rows;
      })
    f.entries

(* One subset being solved: its layout, its live columns (sorted names,
   with their ids) and whether a name is live. *)
type subset = {
  s_layout : Layout.layout;
  live : (string * int) list;
  is_live : bool array; (* by name id *)
}

(* The order an OJ or SOJ output [v], sorted on its left join column
   [c1] (a name id), records in [sub], as (sorted, clustered) name ids:
   the order on [c1] when [c1] is live.  A dead [c1]'s order is read
   only through co-ordering: when [c1] co-orders exactly one live column
   [x], the output is recorded as clustered on [x]; when it co-orders
   several, the order on [c1] is kept; when none, no order is
   recorded. *)
let sorted_output names sub c1 v =
  if sub.is_live.(c1) then (c1, c1)
  else begin
    let x = ref (-1) and several = ref false in
    List.iter
      (fun b ->
        if sub.is_live.(b) then
          if !x < 0 then x := b else if !x <> b then several := true)
      (Layout.co_partners names v c1);
    if !several then (c1, c1) else (-1, !x)
  end

(* One split of a subset: the memo indices of its halves and the join
   columns (names and ids), [c1] in the left half. *)
type split = { left : int; right : int; on : join_on }

(* A predicate oriented for a split: [c1] (name id [c1_id]) in the left
   half. *)
and join_on = { c1 : string; c2 : string; c1_id : int; c2_id : int }

(* All join candidates of one split [(f1, f2)] on [c1 = c2], in the
   order the pairs and algorithms enumerate, minus those that provably
   cannot reach the subset's Pareto frontier — they are counted (in
   [ctx] and [generated]) but never allocated.  [emit] receives each
   pair's surviving candidates as a list in {e reverse} candidate order.

   A candidate dropped here always has a kept witness that dominates
   it in the frontier fold: a strictly dominating one anywhere in the
   stream, or a dominating one earlier in it.  Either kills the
   candidate in the fold, and kills everything the candidate would
   have, so the frontier — members and order — is unchanged.  Two
   rules drop:

   - {b dead input order}: a pair whose left entry has a twin (see
     {!twins}), or whose right entry has one, is skipped when every
     applicable algorithm's candidate is strictly cheaper for the twin
     after the float sums.  On a tie the pair is built, and the fold's
     stream order breaks the tie as it always did.
   - {b within a pair}: an unordered candidate is dropped when an
     earlier kept candidate of the pair costs no more, an ordered one
     when an earlier kept ordered one does — the ordered vector is the
     unordered one with an order added, so it dominates.  An ordered
     algorithm whose order {!sorted_output} drops counts as unordered.

   Each pair's output class is one {!Props.Layout.union} of the
   inputs' classes, memoised per split on the two classes and the
   output rows, with its unordered vector and the ordered one
   {!sorted_output} records for the subset's live columns. *)
let rec probe_on (c : int) = function
  | [] -> raise Not_found
  | (c', p) :: rest -> if c = c' then p else probe_on c rest

(* Whether every candidate of [mask] built on [t1] and [t2] instead of
   [e1] and [e2] is strictly cheaper, exactly as the candidates sum
   it. *)
let all_cheaper jcost mask (t1 : dentry) (t2 : dentry) (e1 : dentry)
    (e2 : dentry) =
  let other = t1.cost +. t2.cost and base = e1.cost +. e2.cost in
  other < base
  &&
  let ok = ref true in
  for k = 0 to Array.length jcost - 1 do
    if mask land (1 lsl k) <> 0 && not (other +. jcost.(k) < base +. jcost.(k))
    then ok := false
  done;
  !ok

let join_split ctx names sub ~generated ~emit sp f1 f2 =
  let a1 = f1.arr and ids1 = f1.ids and a2 = f2.arr and ids2 = f2.ids in
  let p1 = probe_on sp.on.c1_id f1.probes and p2 = probe_on sp.on.c2_id f2.probes in
  let map1 = Layout.slots_into f1.layout ~into:sub.s_layout in
  let map2 = Layout.slots_into f2.layout ~into:sub.s_layout in
  let sorted1 = p1.on_sorted and sorted2 = p2.on_sorted in
  let twin1 = p1.twin and twin2 = p2.twin in
  (* The memoised unions, keyed on the input classes and output rows;
     a split's pairs mostly share one key, so the last one is checked
     first. *)
  let unions = ref [] and last = ref (-1, -1, -1, None) in
  let union i j (e1 : dentry) (e2 : dentry) out_rows =
    let k1 = ids1.(i) and k2 = ids2.(j) in
    match !last with
    | a, b, r, Some u when a = k1 && b = k2 && r = out_rows -> u
    | _ ->
      let u =
        match
          List.find_opt (fun (a, b, r, _) -> a = k1 && b = k2 && r = out_rows) !unions
        with
        | Some (_, _, _, u) -> u
        | None ->
          let cls =
            Layout.union sub.s_layout map1 e1.props.Layout.cls map2
              e2.props.Layout.cls ~rows:out_rows
          in
          let unordered = { Layout.cls; sorted = -1; clustered = -1 } in
          let sorted, clustered =
            sorted_output names sub sp.on.c1_id unordered
          in
          let u =
            if sorted < 0 && clustered < 0 then (unordered, None)
            else (unordered, Some { Layout.cls; sorted; clustered })
          in
          unions := (k1, k2, out_rows, u) :: !unions;
          u
      in
      last := (k1, k2, out_rows, Some u);
      u
  in
  let algs = ctx.joins in
  let nalgs = Array.length algs.impls in
  (* Join costs depend on the right entry only through its rows, which
     the right entries share in a few classes: worked out per class, and
     again only when the left entry's rows, distinct count or algorithms
     change. *)
  let jcosts = Array.map (fun _ -> Array.make nalgs 0.0) f2.rows_vals in
  let key_rows = ref (-1) and key_d = ref (-1) and key_mask = ref (-1) in
  for i = 0 to Array.length a1 - 1 do
    let e1 = a1.(i) in
    let d1 = p1.distinct.(i) in
    let avail = p1.avail.(i) in
    let unsorted = algs.fits.(join_available ~avail ~both_sorted:false) in
    let sorted = algs.fits.(join_available ~avail ~both_sorted:sorted1.(i)) in
    let n_unsorted = popcount unsorted and n_sorted = popcount sorted in
    if e1.rows <> !key_rows || d1 <> !key_d || sorted <> !key_mask then begin
      key_rows := e1.rows;
      key_d := d1;
      key_mask := sorted;
      Array.iteri
        (fun r rows2 ->
          Model.join_costs ctx.model ~impls:algs.impls ~mask:sorted
            ~left_rows:e1.rows ~right_rows:rows2 ~left_distinct:d1 jcosts.(r))
        f2.rows_vals
    end;
    (* The output rows depend on the right entry only through its rows
       and distinct count, which runs of right entries share. *)
    let rows2 = ref (-1) and d2 = ref (-1) and out_rows = ref 0 in
    for j = 0 to Array.length a2 - 1 do
      let e2 = a2.(j) in
      let mask = if sorted2.(j) then sorted else unsorted in
      let n = if sorted2.(j) then n_sorted else n_unsorted in
      ctx.considered <- ctx.considered + n;
      generated := !generated + n;
      let jcost = jcosts.(f2.rows_class.(j)) in
      if e2.rows <> !rows2 || p2.distinct.(j) <> !d2 then begin
        rows2 := e2.rows;
        d2 := p2.distinct.(j);
        out_rows :=
          correct_join ctx sp.on.c1 sp.on.c2
            (Cardinality.equi_join ~left_rows:e1.rows ~right_rows:!rows2
               ~left_distinct:d1 ~right_distinct:!d2)
      end;
      let out_rows = !out_rows in
      let base = e1.cost +. e2.cost in
      let skip =
        (twin1.(i) >= 0 && all_cheaper jcost mask a1.(twin1.(i)) e2 e1 e2)
        || (twin2.(j) >= 0 && all_cheaper jcost mask e1 a2.(twin2.(j)) e1 e2)
      in
      if not skip then begin
        let unordered, ordered = union i j e1 e2 out_rows in
        let has_order = Option.is_some ordered in
        let kept = ref [] in
        let min_any = ref Float.nan and min_ordered = ref Float.nan in
        for k = 0 to nalgs - 1 do
          if mask land (1 lsl k) <> 0 then begin
            let a_ordered =
              has_order
              && Granule.sorted_output algs.yields.(k) ~input_sorted:sorted1.(i)
            in
            let cost = base +. jcost.(k) in
            let dominated =
              if a_ordered then !min_ordered <= cost else !min_any <= cost
            in
            if not dominated then begin
              kept :=
                {
                  plan =
                    Physical.Join_op
                      (e1.plan, e2.plan, sp.on.c1, sp.on.c2, algs.impls.(k));
                  cost;
                  props =
                    (match ordered with
                    | Some o when a_ordered -> o
                    | Some _ | None -> unordered);
                  rows = out_rows;
                }
                :: !kept;
              ctx.built <- ctx.built + 1;
              if not (!min_any <= cost) then min_any := cost;
              if a_ordered && not (!min_ordered <= cost) then
                min_ordered := cost
            end
          end
        done;
        emit !kept
      end
    done
  done

(* The learned beam gate: score every Pareto survivor of a join subset
   with the value-model snapshot and keep only the k best (lowest
   predicted true cost).  Ties break on estimated cost, then on the
   rendered plan — a total, scheduling-independent order, so pooled
   and sequential searches cut exactly the same entries. *)
let beam_gate ctx ~props entries =
  match ctx.learner with
  | None -> entries
  | Some (snap, k) ->
    let n = List.length entries in
    ctx.scored <- ctx.scored + n;
    if n <= k then entries
    else begin
      ctx.beam_pruned <- ctx.beam_pruned + (n - k);
      (* Each plan is rendered at most once, and only if a tie needs it. *)
      let keyed =
        List.map
          (fun (e : dentry) ->
            ( Learner.score snap ~cost:e.cost
                (Learner.featurize ~props:(props e) ~rows:e.rows),
              lazy (Format.asprintf "%a" Physical.pp e.plan),
              e ))
          entries
      in
      let sorted =
        List.stable_sort
          (fun (sa, ra, (a : dentry)) (sb, rb, (b : dentry)) ->
            match Float.compare sa sb with
            | 0 -> (
              match Float.compare a.cost b.cost with
              | 0 -> String.compare (Lazy.force ra) (Lazy.force rb)
              | c -> c)
            | c -> c)
          keyed
      in
      List.filteri (fun i _ -> i < k) (List.map (fun (_, _, e) -> e) sorted)
    end

(* ------------------------------------------------------------------ *)
(* Join-subtree DP over relation subsets (System-R style, no cross
   products).                                                          *)

let rec flatten_joins l =
  match l with
  | Logical.Join (a, b, lc, rc) ->
    let la, pa = flatten_joins a in
    let lb, pb = flatten_joins b in
    (la @ lb, (lc, rc) :: (pa @ pb))
  | Logical.Scan _ | Logical.Select _ | Logical.Project _
  | Logical.Group_by _ ->
    ([ l ], [])

(* A printable name for a join leaf: the base table it scans. *)
let rec leaf_label (l : Logical.t) =
  match l with
  | Logical.Scan name -> name
  | Logical.Select (t, _, _) | Logical.Project (t, _)
  | Logical.Group_by (t, _, _) ->
    leaf_label t
  | Logical.Join _ -> "join"

(* ------------------------------------------------------------------ *)
(* The DP core, over pre-planned leaf frontiers.  [join_dp] feeds it
   the per-leaf plans of one query; the hierarchical optimiser feeds it
   partition frontiers as compound leaves.                              *)

let dp_frontiers ctx ~above ~leaf_names ~(leaf_sets : Pareto.entry list array)
    ~predicates =
  let k = Array.length leaf_sets in
  if k = 0 then invalid_arg "Search: join DP needs at least one leaf";
  (* Column -> leaf index, from each leaf's property column lists. *)
  let col_leaf = Hashtbl.create 16 in
  Array.iteri
    (fun i entries ->
      match entries with
      | [] -> ()
      | (e : Pareto.entry) :: _ ->
        List.iter
          (fun (n, _) ->
            if not (Hashtbl.mem col_leaf n) then Hashtbl.add col_leaf n i)
          e.Pareto.props.Props.columns)
    leaf_sets;
  (* Resolve every predicate's leaf endpoints once per query.
     Predicates naming a column no leaf provides can never connect a
     split and are dropped here. *)
  let pred_endpoints =
    Array.of_list
      (List.filter_map
         (fun (lc, rc) ->
           match
             (Hashtbl.find_opt col_leaf lc, Hashtbl.find_opt col_leaf rc)
           with
           | Some ll, Some rl -> Some (ll, rl, lc, rc)
           | None, _ | _, None -> None)
         predicates)
  in
  (* Every name the DP can meet gets its id before the levels run: the
     columns read above and joined here now, the leaves' as they are
     converted. *)
  let names = Layout.names () in
  List.iter (fun n -> ignore (Layout.name_id names n)) above;
  (* The columns of [s] a predicate joins to a leaf outside it, as name
     ids, onto [acc]: every join of [s] is on one of them. *)
  let pred_ids =
    Array.map
      (fun (_, _, lc, rc) -> (Layout.name_id names lc, Layout.name_id names rc))
      pred_endpoints
  in
  let crossing_onto acc s =
    let acc = ref acc in
    Array.iteri
      (fun i (ll, rl, _, _) ->
        let l_in = Bitset.mem ll s and r_in = Bitset.mem rl s in
        if l_in && not r_in then acc := fst pred_ids.(i) :: !acc
        else if r_in && not l_in then acc := snd pred_ids.(i) :: !acc)
      pred_endpoints;
    !acc
  in
  let crossing s = List.sort_uniq Int.compare (crossing_onto [] s) in
  (* The first predicate (in query order) with one side in each half,
     oriented so that its first column lives in [s1]. *)
  let oriented =
    Array.mapi
      (fun i (_, _, lc, rc) ->
        let lid, rid = pred_ids.(i) in
        ( { c1 = lc; c2 = rc; c1_id = lid; c2_id = rid },
          { c1 = rc; c2 = lc; c1_id = rid; c2_id = lid } ))
      pred_endpoints
  in
  let connecting s1 s2 =
    let n = Array.length pred_endpoints in
    let rec go i =
      if i >= n then None
      else
        let ll, rl, _, _ = pred_endpoints.(i) in
        if Bitset.mem ll s1 && Bitset.mem rl s2 then Some (fst oriented.(i))
        else if Bitset.mem rl s1 && Bitset.mem ll s2 then Some (snd oriented.(i))
        else go (i + 1)
    in
    go 0
  in
  (* The live columns of subset [s] — those whose order can still pay
     off above it (§2.1: a choice has a global effect only if an
     operator above reads the property it changes): a column some
     predicate of this DP joins to a leaf outside [s], and the columns
     [above] the DP reads.  Every later join of [s] is on a predicate
     crossing [s], so an order on any other column is read by nothing;
     [s] enforces sorts and keeps join output orders on live columns
     only.  Sorted, like {!interesting_columns}. *)
  let above_ids = List.map (Layout.name_id names) above in
  (* Live columns are listed by name: each one's rank in that order. *)
  let rank =
    let ids =
      List.sort_uniq Int.compare
        (above_ids @ List.concat_map (fun (a, b) -> [ a; b ]) (Array.to_list pred_ids))
    in
    let rank = Array.make (Layout.name_count names) 0 in
    List.iteri
      (fun r id -> rank.(id) <- r)
      (List.sort
         (fun a b -> String.compare (Layout.name names a) (Layout.name names b))
         ids);
    rank
  in
  let live_columns s =
    List.sort_uniq
      (fun a b -> Int.compare rank.(a) rank.(b))
      (crossing_onto above_ids s)
  in
  (* Leaf adjacency from the resolved predicates. *)
  let adj = Array.make k Bitset.empty in
  Array.iter
    (fun (ll, rl, _, _) ->
      if ll <> rl then begin
        adj.(ll) <- Bitset.add rl adj.(ll);
        adj.(rl) <- Bitset.add ll adj.(rl)
      end)
    pred_endpoints;
  (* Connected subsets only.  A disconnected subset always has an empty
     frontier — no split of it passes [connecting] — so enumerating it
     is pure Θ(3^n) waste.  Level [c] is grown from level [c-1] by
     single-neighbour extension (every connected set has a removable
     vertex, so every connected c-set is reached), deduplicated, and
     sorted into ascending {!Bitset.compare} — colex — order, the order
     the levels solve them in.  Memo indices: the leaves, then the
     levels; [index] maps a subset to its memo index. *)
  let neighbours s =
    Bitset.fold (fun i acc -> Bitset.union acc adj.(i)) s Bitset.empty
  in
  let next_level prev =
    let seen = Subsets.create (max 16 (Array.length prev * 2)) in
    Array.iter
      (fun s ->
        Bitset.iter
          (fun v ->
            let s' = Bitset.add v s in
            if not (Subsets.mem seen s') then Subsets.replace seen s' ())
          (Bitset.diff (neighbours s) s))
      prev;
    let arr = Array.make (Subsets.length seen) Bitset.empty in
    let i = ref 0 in
    Subsets.iter
      (fun s () ->
        arr.(!i) <- s;
        incr i)
      seen;
    Array.sort Bitset.compare arr;
    arr
  in
  let subsets =
    let rec grow level acc =
      if Array.length level = 0 then List.rev acc
      else grow (next_level level) (level :: acc)
    in
    Array.concat (grow (Array.init k Bitset.singleton) [])
  in
  let index = Subsets.create (Array.length subsets) in
  Array.iteri (fun i s -> Subsets.replace index s i) subsets;
  (* The splits of [s] whose halves are connected and joined by a
     predicate, in {!Bitset.iter_subsets} order: every sub-subset is
     looked up in [index], built once, not in the memo. *)
  let splits s =
    let acc = ref [] in
    Bitset.iter_subsets
      (fun s1 ->
        match Subsets.find_opt index s1 with
        | None -> ()
        | Some left -> (
          let s2 = Bitset.diff s s1 in
          match Subsets.find_opt index s2 with
          | None -> ()
          | Some right -> (
            match connecting s1 s2 with
            | None -> ()
            | Some on -> acc := { left; right; on } :: !acc)))
      s;
    List.rev !acc
  in
  (* Subsets past the leaves are filled at their level's barrier. *)
  let memo =
    Array.make (Array.length subsets) (frontier (Layout.layout names []) ~joined:[] [])
  in
  for i = 0 to k - 1 do
    memo.(i) <- of_leaf names ~joined:(crossing subsets.(i)) leaf_sets.(i)
  done;
  let nnames = Layout.name_count names in
  let subset_label s =
    "subset{"
    ^ String.concat ","
        (List.map (fun i -> leaf_names.(i)) (Bitset.to_list s))
    ^ "}"
  in
  (* Solve one subset against the (read-only) memo of smaller subsets,
     recording counters into [local] only.  Each pair's candidate chunk
     is consed as it is built, and the chunks are folded into the
     frontier last chunk first: the candidate stream, whose order fixes
     the frontier's entry order, runs from the last pair to the first,
     without concatenating the chunks.  With a learner, the beam gate
     cuts the merged Pareto frontier to the top-k before it is recorded
     and memoised — the pruning that keeps downstream candidate
     products flat. *)
  let solve local idx =
    let s = subsets.(idx) in
    let splits = splits s in
    let s_layout =
      match splits with
      | sp :: _ ->
        Layout.union_layout names memo.(sp.left).layout memo.(sp.right).layout
      | [] -> Layout.layout names []
    in
    let live = List.map (fun id -> (Layout.name names id, id)) (live_columns s) in
    let is_live = Array.make nnames false in
    List.iter (fun (_, id) -> is_live.(id) <- true) live;
    let sub = { s_layout; live; is_live } in
    let chunks = ref [] and generated = ref 0 in
    let emit chunk = chunks := chunk :: !chunks in
    List.iter
      (fun sp ->
        let f1 = memo.(sp.left) and f2 = memo.(sp.right) in
        if Array.length f1.arr > 0 && Array.length f2.arr > 0 then
          join_split local names sub ~generated ~emit sp f1 f2)
      splits;
    (* A chunk holds its pair's candidates in reverse order. *)
    let survivors =
      List.fold_left
        (fun acc chunk -> List.fold_right (fun e acc -> add acc e) chunk acc)
        [] !chunks
    in
    (* Sort enforcers on the live columns each survivor has and is not
       sorted on. *)
    let enforced =
      List.concat_map
        (fun (e : dentry) ->
          List.filter_map
            (fun (col, id) ->
              if
                (not (Layout.has s_layout e.props id))
                || e.props.Layout.sorted = id
              then None
              else
                Some
                  {
                    e with
                    plan = Physical.Sort_enforcer (e.plan, col);
                    cost = e.cost +. Model.sort_cost local.model ~rows:e.rows;
                    props = Layout.with_sort e.props id;
                  })
            sub.live)
        survivors
    in
    count local (List.length enforced);
    let merged = List.fold_left add survivors enforced in
    let export = Layout.exporter names s_layout in
    let entries =
      record_step local (subset_label s) ~generated:!generated
        ~enforcers:(List.length enforced)
        (beam_gate local ~props:(fun e -> export e.props) merged)
    in
    frontier s_layout ~joined:(crossing s) entries
  in
  (* One DP subproblem as a task: a private sub-context, timed, with
     its single trace step read back for the per-task metrics. *)
  let run_task reg idx =
    let local = sub_ctx ctx in
    let t0 = Metrics.now_ns () in
    let f = solve local idx in
    let wall_ns = Metrics.now_ns () - t0 in
    (match reg with
    | None -> ()
    | Some m ->
      let generated, enforcers, kept =
        match local.steps with
        | [ st ] -> (st.generated, st.enforcers, st.kept)
        | [] | _ :: _ :: _ -> (0, 0, Array.length f.arr)
      in
      Metrics.incr m "opt.dp.subproblems";
      Metrics.incr ~by:generated m "opt.dp.candidates_generated";
      (* The join candidates the task allocated; the rest of [generated]
         were proved dominated without being built. *)
      Metrics.incr ~by:(local.built - enforcers) m "opt.dp.candidates_built";
      Metrics.incr ~by:kept m "opt.dp.pareto_kept";
      (if ctx.learner <> None then begin
         Metrics.incr ~by:local.scored m "opt.learn.scored";
         Metrics.incr ~by:local.beam_pruned m "opt.learn.pruned"
       end);
      Metrics.add_span_ns m "opt.dp.wall_ns" wall_ns);
    (f, local)
  in
  (* All subsets of one cardinality, each claimed by exactly one worker
     (chunk 1, like [Pool.map_tasks]); results land in per-index slots
     and per-worker metrics registries, so nothing below depends on
     which worker ran what. *)
  let run_level lo n =
    match ctx.pool with
    | Some pool when Pool.size pool > 1 && n > 1 ->
      let out = Array.make n None in
      let regs = Array.init (Pool.size pool) (fun _ -> Metrics.create ()) in
      Pool.parallel_for pool ~chunk:1 ~n (fun ~w ~lo:a ~hi:b ->
          for i = a to b do
            out.(i) <- Some (run_task (Some regs.(w)) (lo + i))
          done);
      (match ctx.metrics with
      | Some m -> Array.iter (fun r -> Metrics.merge ~into:m r) regs
      | None -> ());
      Array.map (function Some v -> v | None -> assert false) out
    | Some _ | None -> Array.init n (fun i -> run_task ctx.metrics (lo + i))
  in
  (* Level-synchronous DP: all subsets of cardinality [card] depend only
     on the memo of smaller subsets, so each level fans out between two
     barriers.  The barrier merge walks results in subset order —
     frontiers, counters, and trace are byte-identical for any pool
     size. *)
  let lo = ref k in
  for card = 2 to k do
    let n = ref 0 in
    while
      !lo + !n < Array.length subsets
      && Bitset.cardinal subsets.(!lo + !n) = card
    do
      incr n
    done;
    let t0 = Metrics.now_ns () in
    let results = run_level !lo !n in
    let wall_ms = Float.of_int (Metrics.now_ns () - t0) /. 1e6 in
    let generated = ref 0 and kept = ref 0 in
    let pruned = ref 0 and beam = ref 0 in
    Array.iteri
      (fun i (f, (local : ctx)) ->
        memo.(!lo + i) <- f;
        kept := !kept + Array.length f.arr;
        (match local.steps with
        | [ st ] ->
          generated := !generated + st.generated;
          pruned := !pruned + st.pruned
        | [] | _ :: _ :: _ -> ());
        beam := !beam + local.beam_pruned;
        ctx.considered <- ctx.considered + local.considered;
        ctx.built <- ctx.built + local.built;
        ctx.enforced <- ctx.enforced + local.enforced;
        ctx.pruned <- ctx.pruned + local.pruned;
        ctx.scored <- ctx.scored + local.scored;
        ctx.beam_pruned <- ctx.beam_pruned + local.beam_pruned;
        ctx.steps <- local.steps @ ctx.steps)
      results;
    ctx.levels <-
      {
        level = card;
        subproblems = !n;
        level_generated = !generated;
        level_kept = !kept;
        level_pruned = !pruned;
        level_beam_pruned = !beam;
        level_wall_ms = wall_ms;
      }
      :: ctx.levels;
    lo := !lo + !n
  done;
  (* The whole set, when connected, is the last subset. *)
  let last = Array.length subsets - 1 in
  if
    (not (Bitset.equal subsets.(last) (Bitset.full k)))
    || Array.length memo.(last).arr = 0
  then invalid_arg "Search: join graph is disconnected (cross product needed)"
  else if k = 1 then (* A single leaf: its frontier verbatim. *)
    leaf_sets.(0)
  else to_entries names memo.(last)

(* [above]: the columns operators above [l] read — what a join DP
   inside [l] keeps orders on besides its own join columns.  A filter
   or projection reads none and passes its own [above] down; a grouping
   reads its key, and nothing past it reads its input; a join DP reads
   its predicates' columns. *)
let rec plan_node ctx ~above (l : Logical.t) : Pareto.entry list =
  match l with
  | Logical.Scan name -> (
    match List.assoc_opt name ctx.virtuals with
    | Some entries ->
      (* A pre-planned frontier spliced in verbatim (the hierarchical
         optimiser's stitched join); pruning or enforcing here again
         would break the byte-identity of one-partition hierarchical
         plans with the exhaustive DP. *)
      count ctx (List.length entries);
      record_step ctx
        ("stitched(" ^ name ^ ")")
        ~generated:(List.length entries) ~enforcers:0 entries
    | None ->
      count ctx 1;
      with_enforcers ctx ("scan(" ^ name ^ ")") ~generated:1
        [ base_entry ctx name ])
  | Logical.Select (t, col, p) ->
    let inputs = plan_node ctx ~above t in
    let candidates = List.map (select_entry ctx col p) inputs in
    count ctx (List.length candidates);
    with_enforcers ctx
      (Format.asprintf "select(%s %a)" col Filter.pp p)
      ~generated:(List.length candidates) candidates
  | Logical.Project (t, cols) ->
    let inputs = plan_node ctx ~above t in
    let candidates = List.map (project_entry cols) inputs in
    count ctx (List.length candidates);
    record_step ctx
      ("project(" ^ String.concat ", " cols ^ ")")
      ~generated:(List.length candidates) ~enforcers:0
      (Pareto.add_all [] candidates)
  | Logical.Join _ -> join_dp ctx ~above l
  | Logical.Group_by (t, key, aggs) ->
    let inputs = plan_node ctx ~above:[ key ] t in
    let candidates =
      List.concat_map (fun e -> group_candidates ctx e key aggs) inputs
    in
    record_step ctx
      ("group_by(" ^ key ^ ")")
      ~generated:(List.length candidates) ~enforcers:0
      (Pareto.add_all [] candidates)

and join_dp ctx ~above l =
  let leaves, predicates = flatten_joins l in
  let joined = List.concat_map (fun (lc, rc) -> [ lc; rc ]) predicates in
  let leaf_sets =
    Array.of_list (List.map (plan_node ctx ~above:(joined @ above)) leaves)
  in
  let leaf_names = Array.of_list (List.map leaf_label leaves) in
  dp_frontiers ctx ~above ~leaf_names ~leaf_sets ~predicates

and group_candidates ctx (e : Pareto.entry) key aggs =
  let groups =
    min (max 1 (distinct_or e.Pareto.props key e.Pareto.rows)) (max 1 e.Pareto.rows)
  in
  (* The group count stays within [1, input rows] even when corrected. *)
  let groups = min (max 1 e.Pareto.rows) (correct_group ctx key groups) in
  let out_rows = Cardinality.group_by ~key_distinct:groups in
  let key_props sorted =
    let columns =
      match Props.column e.Pareto.props key with
      | Some c -> [ (key, { c with Props.distinct = groups }) ]
      | None -> []
    in
    {
      Props.sorted_by = (if sorted then Some key else None);
      (* Every key appears exactly once in a grouping output, so the
         result is trivially clustered by key. *)
      clustered_by = Some key;
      columns;
      co_ordered = [];
    }
  in
  let mk impl props =
    let cost =
      Model.grouping_cost ctx.model ~impl ~rows:e.Pareto.rows ~groups
    in
    {
      Pareto.plan = Physical.Group_op (e.Pareto.plan, key, aggs, impl);
      cost = e.Pareto.cost +. cost;
      props;
      rows = out_rows;
    }
  in
  let g = ctx.groupings in
  let fits = g.fits.(group_available e.Pareto.props key) in
  let input_sorted = Props.sorted_on e.Pareto.props key in
  let candidates = ref [] in
  for k = Array.length g.impls - 1 downto 0 do
    if fits land (1 lsl k) <> 0 then
      let sorted = Granule.sorted_output g.yields.(k) ~input_sorted in
      candidates := mk g.impls.(k) (key_props sorted) :: !candidates
  done;
  let candidates = !candidates in
  count ctx (List.length candidates);
  candidates

(* ------------------------------------------------------------------ *)

(* The search scores against one immutable snapshot: concurrent
   training cannot shift scores mid-search, and a cold model (too few
   observations) degrades to the exhaustive enumeration. *)
let make_gate ?metrics ~beam learner =
  if beam < 1 then invalid_arg "Search.optimize_entries: beam < 1";
  let gate, cold =
    match learner with
    | None -> (None, false)
    | Some lrn ->
      let snap = Learner.snapshot lrn in
      if Learner.snapshot_ready snap then (Some (snap, beam), false)
      else (None, true)
  in
  (match (cold, metrics) with
  | true, Some m -> Metrics.incr m "opt.learn.fallbacks"
  | _ -> ());
  (gate, cold)

let make_ctx ~model ~pool ~metrics ~feedback ~gate ~interesting ~virtuals mode
    catalog =
  let max_level = max_level mode model in
  {
    mode;
    model;
    groupings =
      candidates ~max_level Granule.grouping (fun alg m ->
          { (Physical.default_grouping alg) with
            Physical.g_table = m.Granule.table; g_hash = m.Granule.hash });
    joins =
      candidates ~max_level Granule.join (fun alg m ->
          { (Physical.default_join alg) with
            Physical.j_table = m.Granule.table; j_hash = m.Granule.hash });
    catalog;
    interesting;
    pool;
    metrics;
    feedback;
    learner = gate;
    virtuals;
    considered = 0;
    built = 0;
    enforced = 0;
    pruned = 0;
    scored = 0;
    beam_pruned = 0;
    steps = [];
    levels = [];
  }

let finish_stats ctx ~pool ~gate ~cold entries =
  {
    plans_considered = ctx.considered;
    candidates_built = ctx.built;
    pareto_kept = List.length entries;
    enforcers_added = ctx.enforced;
    candidates_pruned = ctx.pruned;
    dp_domains = (match pool with Some p -> Pool.size p | None -> 1);
    beam_width = (match gate with Some (_, k) -> Some k | None -> None);
    learner_scored = ctx.scored;
    learner_pruned = ctx.beam_pruned;
    learner_cold = cold;
    trace = List.rev ctx.steps;
    levels = List.rev ctx.levels;
  }

let optimize_entries ?(model = Model.table2) ?pool ?metrics ?feedback ?learner
    ?(beam = 4) ?interesting ?(virtuals = []) mode catalog l =
  let gate, cold = make_gate ?metrics ~beam learner in
  (* Planned on its own, nothing reads the query's output order; planned
     as a piece of a larger query, its interesting columns are the
     superset of what the rest of that query reads. *)
  let above, interesting =
    match interesting with
    | Some cols -> (cols, cols)
    | None -> ([], interesting_columns l)
  in
  let ctx =
    make_ctx ~model ~pool ~metrics ~feedback ~gate ~interesting ~virtuals mode
      catalog
  in
  let entries = plan_node ctx ~above l in
  (entries, finish_stats ctx ~pool ~gate ~cold entries)

let optimize_frontiers ?(model = Model.table2) ?pool ?metrics ?feedback
    ?learner ?(beam = 4) ?(interesting = []) ~names ~leaves ~predicates mode
    catalog =
  let gate, cold = make_gate ?metrics ~beam learner in
  let ctx =
    make_ctx ~model ~pool ~metrics ~feedback ~gate ~interesting ~virtuals:[]
      mode catalog
  in
  let entries =
    dp_frontiers ctx ~above:interesting ~leaf_names:names ~leaf_sets:leaves
      ~predicates
  in
  (entries, finish_stats ctx ~pool ~gate ~cold entries)

let step_to_json (s : trace_step) =
  Dqo_obs.Json.Obj
    [
      ("step", Dqo_obs.Json.String s.step);
      ("candidates_generated", Dqo_obs.Json.Int s.generated);
      ("enforcers_added", Dqo_obs.Json.Int s.enforcers);
      ("pareto_kept", Dqo_obs.Json.Int s.kept);
      ("pruned", Dqo_obs.Json.Int s.pruned);
    ]

let level_to_json (lv : level_stat) =
  Dqo_obs.Json.Obj
    [
      ("level", Dqo_obs.Json.Int lv.level);
      ("subproblems", Dqo_obs.Json.Int lv.subproblems);
      ("candidates_generated", Dqo_obs.Json.Int lv.level_generated);
      ("pareto_kept", Dqo_obs.Json.Int lv.level_kept);
      ("pruned", Dqo_obs.Json.Int lv.level_pruned);
      ("beam_pruned", Dqo_obs.Json.Int lv.level_beam_pruned);
      ("wall_ms", Dqo_obs.Json.Float lv.level_wall_ms);
    ]

let stats_to_json (s : stats) =
  Dqo_obs.Json.Obj
    [
      ("plans_considered", Dqo_obs.Json.Int s.plans_considered);
      ("candidates_built", Dqo_obs.Json.Int s.candidates_built);
      ("pareto_kept", Dqo_obs.Json.Int s.pareto_kept);
      ("enforcers_added", Dqo_obs.Json.Int s.enforcers_added);
      ("candidates_pruned", Dqo_obs.Json.Int s.candidates_pruned);
      ("dp_domains", Dqo_obs.Json.Int s.dp_domains);
      ( "beam_width",
        match s.beam_width with
        | Some k -> Dqo_obs.Json.Int k
        | None -> Dqo_obs.Json.Null );
      ("learner_scored", Dqo_obs.Json.Int s.learner_scored);
      ("learner_pruned", Dqo_obs.Json.Int s.learner_pruned);
      ("learner_cold", Dqo_obs.Json.Bool s.learner_cold);
      ("trace", Dqo_obs.Json.List (List.map step_to_json s.trace));
      ("levels", Dqo_obs.Json.List (List.map level_to_json s.levels));
    ]

let optimize ?model ?pool ?feedback ?learner ?beam mode catalog l =
  let entries, _ =
    optimize_entries ?model ?pool ?feedback ?learner ?beam mode catalog l
  in
  Pareto.cheapest entries

let improvement_factor ?model ?pool ?feedback catalog l =
  let shallow = optimize ?model ?pool ?feedback Shallow catalog l in
  let deep = optimize ?model ?pool ?feedback Deep catalog l in
  if deep.Pareto.cost <= 0.0 then 1.0
  else shallow.Pareto.cost /. deep.Pareto.cost
