module Props = Dqo_plan.Props

type entry = {
  plan : Dqo_plan.Physical.t;
  cost : float;
  props : Props.t;
  rows : int;
}

let rec dominated dominates x = function
  | [] -> false
  | m :: rest -> dominates m x || dominated dominates x rest

(* The members [x] does not dominate; the tail past the last member it
   drops is kept as it is, not copied. *)
let rec drop dominates x = function
  | [] -> []
  | m :: rest as l ->
    let rest' = drop dominates x rest in
    if dominates x m then rest' else if rest' == rest then l else m :: rest'

let insert ~dominates set x =
  if dominated dominates x set then set else x :: drop dominates x set

let dominates a b = a.cost <= b.cost && Props.dominates a.props b.props
let add set e = insert ~dominates set e

let add_all set es = List.fold_left add set es

let cheapest = function
  | [] -> invalid_arg "Pareto.cheapest: empty set"
  | e :: rest ->
    List.fold_left (fun best e -> if e.cost < best.cost then e else best) e rest

let size = List.length

let pp ppf set =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun e ->
      Format.fprintf ppf "cost=%.0f rows=%d props=%a@," e.cost e.rows
        Props.pp e.props)
    set;
  Format.fprintf ppf "@]"
