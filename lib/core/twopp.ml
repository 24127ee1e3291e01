open Stt_relation
open Stt_hypergraph
open Stt_polymatroid
open Stt_lp
open Stt_obs
module Fconfig = Stt_factorized.Config
module Frep = Stt_factorized.Frep

(* One probing step of an online plan: join the accumulator with the
   leaf's index on [key], then project to [keep].  The index is the
   leaf's own, so a leaf write has already patched it. *)
type step = { leaf : Live.t; key : Schema.var list; keep : Schema.var list }

(* the online plan of a delegated subproblem *)
type plan = {
  t_target : Varset.t;
  probe_plan : step list; (* greedy degree order: great average case *)
  safe_plan : step list;  (* min worst-case-estimate order *)
  cap : int;              (* abort threshold for the probe plan *)
}

(* ------------------------------------------------------------------ *)
(* incremental maintenance state                                        *)
(* ------------------------------------------------------------------ *)

type decision =
  | M_absent (* some leaf empty at build (or never activated since) *)
  | M_stored of Varset.t
  | M_delegated

type combo = {
  crel : (Cq.atom * Live.t) list;
      (* this combo's leaf per atom, in atom order; an atom no split
         touches has the engine's base relation itself as its leaf *)
  mutable cdecision : decision;
}

(* The degree state deg(Y|X) of one split's input, so a tuple delta
   re-routes — and, when a key crosses the threshold, re-classifies —
   only the affected keys. *)
type split = {
  x_pos : int array; (* positions in the atom schema *)
  y_pos : int array;
  threshold : int;
  ycount : int Tuple.Tbl.t;  (* y-projection multiplicity *)
  xdeg : int Tuple.Tbl.t;    (* distinct-y degree per x key *)
  members : Tuple.t list ref Tuple.Tbl.t; (* x key -> input tuples *)
}

(* One atom's heavy/light splits as a binary tree over its relation: a
   later split of the same atom partitions each part of the earlier
   one.  The leaves are the atom's leaves, heavy first. *)
type tree =
  | Leaf of Live.t
  | Split of { split : split; heavy : tree; light : tree }

type t = {
  rule : Rule.t;
  mutable stored : (Varset.t * Relation.t) list;
  mutable space : int;
  mutable delegated : plan list; (* distinct plans, in build order *)
  mutable stored_subs : int; (* subproblems materialized within the budget *)
  budget : int;
  trees : (Cq.atom * (Live.t * tree)) list;
      (* one per atom, in atom order, with the base relation it splits *)
  combos : combo list; (* one per choice of a leaf for every atom *)
}

let rule t = t.rule
let s_targets t = t.stored
let space t = t.space
let plans t = t.delegated
let plan_target p = p.t_target
let stored_subproblems t = t.stored_subs

let stored_mem t b row =
  match List.find_opt (fun (b', _) -> Varset.equal b b') t.stored with
  | Some (_, rel) -> Relation.mem rel row
  | None -> false

(* Quantized to 1/16 so the target-selection LPs keep small denominators
   (exact simplex on native-int rationals). *)
let log2_rat x =
  let bits = Float.log2 (float_of_int (max 2 x)) in
  Rat.make (int_of_float (Float.round (16.0 *. bits))) 16

(* Measured degree constraints of a subproblem, for target selection. *)
let measured_dc rels =
  List.concat_map
    (fun ((atom : Cq.atom), rel) ->
      let fvars = Cq.atom_vars atom in
      let card =
        Degree.cardinality fvars
          { Degree.d = log2_rat (max 1 (Relation.cardinal rel)); q = Rat.zero }
      in
      let per_var =
        List.filter_map
          (fun v ->
            if Varset.cardinal fvars < 2 then None
            else
              let d = Relation.max_degree rel [ v ] in
              Some
                (Degree.make ~x:(Varset.singleton v) ~y:fvars
                   { Degree.d = log2_rat (max 1 d); q = Rat.zero }))
          (Varset.to_list fvars)
      in
      card :: per_var)
    rels

(* the T-target with the smallest polymatroid size bound; the first one
   when no bound is finite or the bound LP overflows *)
let pick_target n ~dc targets =
  match targets with
  | [ b ] -> b
  | _ -> (
      let bound b =
        Polymatroid.log_size_bound ~n ~dc ~targets:[ b ] ~logd:Rat.one
          ~logq:Rat.zero
      in
      match
        List.fold_left
          (fun acc b ->
            match (acc, bound b) with
            | None, Some v -> Some (b, v)
            | Some (_, v0), Some v when Rat.compare v v0 < 0 -> Some (b, v)
            | acc, _ -> acc)
          None targets
      with
      | Some (b, _) -> b
      | None | (exception Rat.Overflow) -> List.hd targets)

(* The atoms joined for a local T-target: every atom contained in the
   target bag (required for the Yannakakis soundness argument), extended
   greedily until the target's variables are covered. *)
let local_atoms rels ~access b =
  let inside, outside =
    List.partition (fun (a, _) -> Varset.subset (Cq.atom_vars a) b) rels
  in
  let covered =
    List.fold_left
      (fun acc (a, _) -> Varset.union acc (Cq.atom_vars a))
      access inside
  in
  let rec extend covered chosen pool =
    if Varset.subset b covered then List.rev chosen
    else
      let missing = Varset.diff b covered in
      let gain (a, _) = Varset.cardinal (Varset.inter (Cq.atom_vars a) missing) in
      match
        List.filter (fun ar -> gain ar > 0) pool
        |> List.sort (fun a b -> compare (gain b) (gain a))
      with
      | [] -> List.rev chosen (* cannot happen: every var is in an atom *)
      | best :: _ ->
          extend
            (Varset.union covered (Cq.atom_vars (fst best)))
            (best :: chosen)
            (List.filter (fun ar -> ar != best) pool)
  in
  inside @ extend covered [] outside

(* Worst-case cost of joining the atoms in a given order, starting from
   the access schema with |Q_A| = 1: each step multiplies the running
   size bound by the relation's max degree on the shared variables —
   or by its full cardinality when no variable is shared (a product,
   which PANDA-style plans legitimately use to hit D·|Q| bounds).  The
   accumulated intermediate sizes are summed. *)
let order_cost ~access order =
  let rec go bound seen total = function
    | [] -> total
    | (a, leaf) :: rest ->
        let rel = Live.relation leaf in
        let shared =
          List.filter (fun v -> Varset.mem v seen)
            (Varset.to_list (Cq.atom_vars a))
        in
        let step_factor =
          match shared with
          | [] -> Relation.cardinal rel
          | sh -> Relation.max_degree rel sh
        in
        let bound' =
          if step_factor <= 0 then 0
          else if bound > max_int / max 1 step_factor then max_int / 2
          else bound * step_factor
        in
        let seen' = Varset.union seen (Cq.atom_vars a) in
        let total' =
          if total >= max_int - bound' then max_int / 2 else total + bound'
        in
        go bound' seen' total' rest

  in
  go 1 access 0 order

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y != x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

(* turn an ordered leaf list into probing steps with early projection,
   building each leaf's index on its step key now rather than on the
   first request *)
let steps_of_order ~access ~target order =
  let acc_schema = ref (Varset.to_list access) in
  let steps = ref [] in
  List.iteri
    (fun i (atom, leaf) ->
      let key =
        List.filter
          (fun v -> List.mem v !acc_schema)
          (Varset.to_list (Cq.atom_vars atom))
      in
      ignore (Live.index leaf key);
      acc_schema :=
        !acc_schema
        @ List.filter
            (fun v -> not (List.mem v !acc_schema))
            (Varset.to_list (Cq.atom_vars atom));
      (* early projection: keep target vars, access vars and anything a
         later atom still joins on *)
      let rest = List.filteri (fun j _ -> j > i) order in
      let needed =
        List.fold_left
          (fun acc (a, _) -> Varset.union acc (Cq.atom_vars a))
          (Varset.union target access)
          rest
      in
      let keep = List.filter (fun v -> Varset.mem v needed) !acc_schema in
      acc_schema := keep;
      steps := { leaf; key; keep } :: !steps)
    order;
  List.rev !steps

(* greedy order: cheapest connected extension first — excellent on
   average but can cascade through hubs in the worst case *)
let greedy_order ~access atoms =
  let seen = ref access in
  let remaining = ref atoms in
  let out = ref [] in
  while !remaining <> [] do
    let cost (a, leaf) =
      let shared =
        List.filter (fun v -> Varset.mem v !seen)
          (Varset.to_list (Cq.atom_vars a))
      in
      match shared with
      | [] -> max_int
      | sh -> Relation.max_degree (Live.relation leaf) sh
    in
    let best =
      List.fold_left
        (fun acc ar ->
          match acc with
          | Some b when cost b <= cost ar -> acc
          | _ -> Some ar)
        None !remaining
    in
    let chosen = Option.get best in
    remaining := List.filter (fun ar -> ar != chosen) !remaining;
    seen := Varset.union !seen (Cq.atom_vars (fst chosen));
    out := chosen :: !out
  done;
  List.rev !out

(* min worst-case-estimate order: considers product-then-filter plans,
   which realize the paper's D·|Q|-style bounds *)
let safe_order ~access atoms =
  if List.length atoms > 5 then atoms
  else
    match permutations atoms with
    | [] -> []
    | first :: _ as perms ->
        List.fold_left
          (fun best o ->
            if order_cost ~access o < order_cost ~access best then o else best)
          first perms

(* [a * b] for non-negative [a] and [b], saturating at [max_int]: a
   cap past [max_int] is no cap, where a wrapped one would be negative *)
let sat_mul a b = if a <> 0 && b > max_int / a then max_int else a * b

(* Build both plans for one subproblem over its leaves; online execution
   runs the greedy plan with the safe plan's worst-case estimate as an
   abort cap and falls back when it trips — adaptive, at most ~2x the
   worst-case bound, near-greedy on typical requests.  [order_cost] is
   below [max_int], so the [1 +] cannot wrap. *)
let build_plan leaves ~access ~target =
  Cost.with_counting false (fun () ->
      let atoms = local_atoms leaves ~access target in
      let safe = safe_order ~access atoms in
      let greedy = greedy_order ~access atoms in
      {
        t_target = target;
        probe_plan = steps_of_order ~access ~target greedy;
        safe_plan = steps_of_order ~access ~target safe;
        cap = sat_mul 2 (1 + order_cost ~access safe);
      })

(* Two plans that read the same leaves (physically) in the same order,
   on the same keys, keeping the same variables, into the same target
   write the same rows: a plan joins only its [local_atoms]. *)
let same_steps a b =
  List.equal
    (fun s s' -> s.leaf == s'.leaf && s.key = s'.key && s.keep = s'.keep)
    a b

let same_plan a b =
  Varset.equal a.t_target b.t_target
  && same_steps a.probe_plan b.probe_plan
  && same_steps a.safe_plan b.safe_plan

(* evaluate the (partial) body join projected onto each target, giving
   up early on any materialization that cannot fit the budget; joins are
   bounded by a small multiple of the budget because intermediates can
   legitimately overshoot the projected result *)
let eval_targets rels targets ~budget =
  let relations = List.map snd rels in
  let limit = 16 * max 1 budget in
  List.filter_map
    (fun b ->
      match
        Db.join_greedy_bounded relations ~keep:(Varset.to_list b) ~limit
      with
      | Some rel -> Some (b, rel)
      | None -> None)
    targets

type choice = Store of Varset.t * Relation.t | Delegate of plan

(* The one decision for a non-empty subproblem: evaluate the S-targets
   (bounded by [eval_budget]) and store the one of least [size] when it
   fits [budget], else delegate the T-target of least polymatroid bound
   with its probe and safe plans.  Also returns the best candidate and
   its size, stored or not.  Raises [Failure] when the rule has no
   T-target to delegate to. *)
let decide (r : Rule.t) leaves ~eval_budget ~budget ~size =
  let cqap = r.Rule.cqap in
  let rels = List.map (fun (a, l) -> (a, Live.relation l)) leaves in
  let candidates =
    match r.Rule.s_targets with
    | [] -> []
    | s_targets -> eval_targets rels s_targets ~budget:eval_budget
  in
  let best =
    List.fold_left
      (fun acc (b, rel) ->
        let eff = size rel in
        match acc with
        | Some (_, _, best_eff) when best_eff <= eff -> acc
        | _ -> Some (b, rel, eff))
      None candidates
  in
  let choice =
    match best with
    | Some (b, rel, eff) when eff <= budget -> Store (b, rel)
    | _ -> (
        match r.Rule.t_targets with
        | [] -> failwith "Twopp.build: rule impossible at this budget"
        | t_targets ->
            let target =
              pick_target cqap.Cq.cq.Cq.n ~dc:(measured_dc rels) t_targets
            in
            Delegate (build_plan leaves ~access:cqap.Cq.access ~target))
  in
  (best, choice)

(* ------------------------------------------------------------------ *)
(* the split trees                                                      *)
(* ------------------------------------------------------------------ *)

let combo_nonempty c =
  List.for_all (fun (_, l) -> not (Relation.is_empty (Live.relation l))) c.crel

let rec leaves = function
  | Leaf l -> [ l ]
  | Split { heavy; light; _ } -> leaves heavy @ leaves light

(* Count [tup] into [s]'s degree state, the build's counting pass and an
   insert alike.  Returns its x key and whether the key's distinct-y
   degree has just passed the threshold; [tup] heads the key's
   members. *)
let count s tup =
  let y = Tuple.project s.y_pos tup and x = Tuple.project s.x_pos tup in
  let yc = Option.value ~default:0 (Tuple.Tbl.find_opt s.ycount y) in
  Tuple.Tbl.replace s.ycount y (yc + 1);
  let crossed =
    if yc > 0 then false
    else begin
      let xd = Option.value ~default:0 (Tuple.Tbl.find_opt s.xdeg x) in
      Tuple.Tbl.replace s.xdeg x (xd + 1);
      xd = s.threshold
    end
  in
  (match Tuple.Tbl.find_opt s.members x with
  | Some l -> l := tup :: !l
  | None -> Tuple.Tbl.add s.members x (ref [ tup ]));
  (x, crossed)

(* [part_insert]/[part_delete] route one tuple of the tree's atom and
   keep the invariant that every tuple lives in the branch matching its
   x key's *current* distinct-y degree, so the leaves always equal what
   a batch rebuild of the splits would produce.  Leaf changes are
   appended to [events] as [(leaf, tuple, added?)].  A leaf that is the
   base relation already holds the delta, so its write is a no-op. *)
let rec part_insert tree tup events =
  match tree with
  | Leaf l ->
      ignore (Live.add l tup);
      events := (l, tup, true) :: !events
  | Split { split = s; heavy; light } ->
      Cost.charge_probe ();
      let x, crossed = count s tup in
      if crossed then
        (* the key crossed upward: its resident tuples move light ->
           heavy before the new tuple lands *)
        List.iter
          (fun m ->
            Cost.charge_scan ();
            part_delete light m events;
            part_insert heavy m events)
          (List.tl !(Tuple.Tbl.find s.members x));
      part_insert
        (if Tuple.Tbl.find s.xdeg x > s.threshold then heavy else light)
        tup events

and part_delete tree tup events =
  match tree with
  | Leaf l ->
      ignore (Live.remove l tup);
      events := (l, tup, false) :: !events
  | Split { split = s; heavy; light } ->
      Cost.charge_probe ();
      let y = Tuple.project s.y_pos tup in
      let x = Tuple.project s.x_pos tup in
      let yc = Option.value ~default:0 (Tuple.Tbl.find_opt s.ycount y) in
      let old_xd = Option.value ~default:0 (Tuple.Tbl.find_opt s.xdeg x) in
      if yc <= 1 then Tuple.Tbl.remove s.ycount y
      else Tuple.Tbl.replace s.ycount y (yc - 1);
      let crossed_down = yc = 1 && old_xd = s.threshold + 1 in
      if yc = 1 then
        if old_xd <= 1 then Tuple.Tbl.remove s.xdeg x
        else Tuple.Tbl.replace s.xdeg x (old_xd - 1);
      (match Tuple.Tbl.find_opt s.members x with
      | Some l ->
          l := List.filter (fun m -> not (Tuple.equal m tup)) !l;
          if !l = [] then Tuple.Tbl.remove s.members x
      | None -> ());
      (* the tuple lives in the branch of its old classification *)
      part_delete (if old_xd > s.threshold then heavy else light) tup events;
      if crossed_down then
        List.iter
          (fun m ->
            Cost.charge_scan ();
            part_delete heavy m events;
            part_insert light m events)
          (match Tuple.Tbl.find_opt s.members x with
          | Some l -> !l
          | None -> [])

(* The invariant of [part_insert]/[part_delete], recomputed from the
   rows: each split's counters and member lists agree with its input,
   and the leaves hold exactly what splitting the atom's base relation
   now would give — every tuple in one leaf, on the side of its x key's
   current distinct-y degree at each split above it. *)
exception Split_mismatch of string

let check_tree (atom : Cq.atom) base tree =
  let bad depth what =
    raise
      (Split_mismatch
         (Printf.sprintf "atom %s(%s), split depth %d: %s" atom.Cq.rel
            (String.concat "," (List.map string_of_int atom.Cq.vars))
            depth what))
  in
  (* the multiplicity of each key among [rows] *)
  let counts key rows =
    let tbl = Tuple.Tbl.create 64 in
    List.iter
      (fun tup ->
        let k = key tup in
        Tuple.Tbl.replace tbl k
          (1 + Option.value ~default:0 (Tuple.Tbl.find_opt tbl k)))
      rows;
    tbl
  in
  let agree depth what stored computed =
    if
      Tuple.Tbl.length stored <> Tuple.Tbl.length computed
      || not
           (Tuple.Tbl.fold
              (fun k v ok -> ok && Tuple.Tbl.find_opt stored k = Some v)
              computed true)
    then bad depth (what ^ " disagree with the rows")
  in
  let rec go depth tree rows =
    match tree with
    | Leaf l ->
        let rel = Live.relation l in
        if
          Relation.cardinal rel <> List.length rows
          || not (List.for_all (Relation.mem rel) rows)
        then
          bad depth
            (Printf.sprintf "a leaf holds %d rows where the split gives %d"
               (Relation.cardinal rel) (List.length rows))
    | Split { split = s; heavy; light } ->
        let x_of = Tuple.project s.x_pos in
        (* distinct-y degree: the distinct (x, y) keys, counted per x *)
        let pairs =
          counts (Tuple.project (Array.append s.x_pos s.y_pos)) rows
        in
        let deg =
          counts
            (Tuple.project (Array.init (Array.length s.x_pos) Fun.id))
            (Tuple.Tbl.fold (fun k _ acc -> k :: acc) pairs [])
        in
        agree depth "y counts" s.ycount (counts (Tuple.project s.y_pos) rows);
        agree depth "x degrees" s.xdeg deg;
        let members = Tuple.Tbl.create 64 and seen = Tuple.Tbl.create 64 in
        Tuple.Tbl.iter
          (fun x l ->
            Tuple.Tbl.replace members x (List.length !l);
            List.iter
              (fun m ->
                if Tuple.Tbl.mem seen m || not (Tuple.equal (x_of m) x) then
                  bad depth
                    "a member list repeats a row or files it under another key";
                Tuple.Tbl.add seen m ())
              !l)
          s.members;
        agree depth "member lists" members (counts x_of rows);
        if not (List.for_all (Tuple.Tbl.mem seen) rows) then
          bad depth "a row is missing from its key's members";
        let up, down =
          List.partition
            (fun tup -> Tuple.Tbl.find deg (x_of tup) > s.threshold)
            rows
        in
        go (depth + 1) heavy up;
        go (depth + 1) light down
  in
  go 0 tree (Relation.to_list (Live.relation base))

let check_splits t =
  match
    Cost.with_counting false (fun () ->
        List.iter
          (fun (atom, (base, tree)) -> check_tree atom base tree)
          t.trees)
  with
  | () -> Ok ()
  | exception Split_mismatch what -> Error what

(* ------------------------------------------------------------------ *)
(* build                                                                *)
(* ------------------------------------------------------------------ *)

let stored_rel_for t b =
  match List.find_opt (fun (b', _) -> Varset.equal b b') t.stored with
  | Some (_, rel) -> rel
  | None ->
      let rel = Relation.create (Schema.of_list (Varset.to_list b)) in
      t.stored <- t.stored @ [ (b, rel) ];
      rel

(* Add a combo's derived [rows] (any column order over target [b]) to
   the stored union, recording each new row as an S-view insert event. *)
let store_rows t b rows out_events =
  let union_rel = stored_rel_for t b in
  let pos =
    Schema.positions (Relation.schema rows)
      (Schema.vars (Relation.schema union_rel))
  in
  Relation.iter
    (fun row0 ->
      let row = Tuple.project pos row0 in
      if not (Relation.mem union_rel row) then begin
        Relation.add union_rel row;
        t.space <- t.space + 1;
        out_events := (b, row, true) :: !out_events
      end)
    rows

(* carry out a {!decide} for combo [c] *)
let settle t c choice out_events =
  match choice with
  | Store (b, rel) ->
      t.stored_subs <- t.stored_subs + 1;
      c.cdecision <- M_stored b;
      store_rows t b rel out_events
  | Delegate sub ->
      if not (List.exists (same_plan sub) t.delegated) then
        t.delegated <- t.delegated @ [ sub ];
      c.cdecision <- M_delegated

(* One materialization pass.  [budget_lp] drives the guide LP's space
   exponent and the candidate-evaluation limit — how aggressively the
   splits steer tuples toward storage; [budget] is the stored-singleton
   budget every admitted candidate is charged against (at its effective,
   possibly compressed, size).  A plain build has [budget_lp = budget];
   the amplified second pass of {!build} raises only [budget_lp].
   Besides the structure, returns the total cardinality and effective
   size of the best candidates seen, the measured compression evidence
   {!build} amplifies on. *)
let build_pass ~counted (r : Rule.t) ~base ~budget ~budget_lp =
  Obs.span "twopp.build"
    ~attrs:
      [
        ("rule", Json.String (Format.asprintf "%a" Rule.pp r));
        ("budget", Json.Int budget);
        ("budget_lp", Json.Int budget_lp);
      ]
  @@ fun () ->
  Cost.with_counting counted (fun () ->
      let cqap = r.Rule.cqap in
      let cq = cqap.Cq.cq in
      let vs_str b =
        "{"
        ^ String.concat ","
            (List.map (fun v -> cq.Cq.var_names.(v)) (Varset.to_list b))
        ^ "}"
      in
      let dc = Degree.default_dc cq and ac = Degree.default_ac cqap in
      (* the paper's |D|: the largest base relation *)
      let dsize =
        List.fold_left
          (fun acc (_, l) -> max acc (Relation.cardinal (Live.relation l)))
          2 base
      in
      let logd_abs = Float.log2 (float_of_int dsize) in
      let logs =
        Rat.of_float_approx ~max_den:1024
          (Float.log2 (float_of_int (max 2 budget_lp)) /. logd_abs)
      in
      let pivots_before = Simplex.pivot_count () in
      let point =
        (* if the guide LP overflows, build an unguided (split-free)
           structure — correct, just without heavy/light partitioning *)
        try Jointflow.obj r ~dc ~ac ~logd:Rat.one ~logq:Rat.zero ~logs
        with Rat.Overflow ->
          {
            Jointflow.value = Jointflow.Time Rat.zero;
            tradeoff = None;
            split_pairs = [];
            hs = [];
            split_duals = [];
            lp_vars = 0;
            lp_cstrs = 0;
          }
      in
      let lp_pivots = Simplex.pivot_count () - pivots_before in
      Obs.incr ~by:lp_pivots "simplex.pivots";
      Obs.set_attr "lp"
        (Json.Obj
           [
             ("vars", Json.Int point.Jointflow.lp_vars);
             ("cstrs", Json.Int point.Jointflow.lp_cstrs);
             ("pivots", Json.Int lp_pivots);
             ( "split_duals",
               Json.List
                 (List.map
                    (fun (x, y, g) ->
                      Json.Obj
                        [
                          ("x", Json.String (vs_str x));
                          ("y", Json.String (vs_str y));
                          ("dual", Json.String (Rat.to_string g));
                        ])
                    point.Jointflow.split_duals) );
           ]);
      (* [Impossible] is a worst-case prediction; actual materialization is
         still attempted below and only fails if the real data does not
         fit either. *)
      let hs_of x =
        match List.assoc_opt x point.Jointflow.hs with
        | Some v -> v
        | None -> Rat.zero
      in
      (* attach each dual-positive split pair to its first guarding atom *)
      let splits =
        List.filter_map
          (fun (x, y) ->
            match
              List.find_opt
                (fun (a, _) -> Varset.subset y (Cq.atom_vars a))
                base
            with
            | None -> None
            | Some (atom, l) ->
                let exp = Rat.to_float (hs_of x) *. logd_abs in
                let t =
                  float_of_int (max 1 (Relation.cardinal (Live.relation l)))
                  /. Float.pow 2.0 exp
                in
                Some (atom, x, y, max 1 (int_of_float (Float.round t))))
          (List.sort_uniq compare point.Jointflow.split_pairs)
      in
      (* each atom's splits, in split order, as a tree whose nodes carry
         the degree state needed to re-route tuple deltas later.  The
         node's distinct-y degree per x key, deg(Y | X), is also what
         splits the input: keys above the threshold go heavy.  An atom
         no split touches is a leaf: the base relation itself. *)
      let atom_str (atom : Cq.atom) =
        let names = List.map (fun v -> cq.Cq.var_names.(v)) atom.Cq.vars in
        atom.Cq.rel ^ "(" ^ String.concat "," names ^ ")"
      in
      let rec split_tree atom l = function
        | [] -> Leaf l
        | (x, y, threshold) :: rest ->
            let rel = Live.relation l in
            let schema = Relation.schema rel in
            let s =
              {
                x_pos = Schema.positions schema (Varset.to_list x);
                y_pos = Schema.positions schema (Varset.to_list y);
                threshold;
                ycount = Tuple.Tbl.create 64;
                xdeg = Tuple.Tbl.create 64;
                members = Tuple.Tbl.create 64;
              }
            in
            let heavy = Relation.create schema in
            let light = Relation.create schema in
            Obs.span "twopp.split" (fun () ->
                Relation.iter (fun tup -> ignore (count s tup)) rel;
                Relation.iter
                  (fun tup ->
                    let x = Tuple.project s.x_pos tup in
                    if Tuple.Tbl.find s.xdeg x > threshold then
                      Relation.add heavy tup
                    else Relation.add light tup)
                  rel;
                Obs.set_attr "atom" (Json.String (atom_str atom));
                Obs.set_attr "x" (Json.String (vs_str x));
                Obs.set_attr "y" (Json.String (vs_str y));
                Obs.set_attr "threshold" (Json.Int threshold);
                Obs.set_attr "heavy" (Json.Int (Relation.cardinal heavy));
                Obs.set_attr "light" (Json.Int (Relation.cardinal light)));
            let heavy = split_tree atom (Live.of_relation heavy) rest in
            let light = split_tree atom (Live.of_relation light) rest in
            Split { split = s; heavy; light }
      in
      let trees =
        List.map
          (fun (atom, l) ->
            let own (a, x, y, th) = if a == atom then Some (x, y, th) else None in
            (atom, (l, split_tree atom l (List.filter_map own splits))))
          base
      in
      (* subproblems: every choice of one leaf per atom, the first atom's
         choice varying slowest *)
      let combos =
        List.fold_right
          (fun (atom, (_, tree)) rest ->
            List.concat_map
              (fun l -> List.map (fun crel -> (atom, l) :: crel) rest)
              (leaves tree))
          trees [ [] ]
        |> List.map (fun crel -> { crel; cdecision = M_absent })
      in
      let t =
        {
          rule = r;
          stored = [];
          space = 0;
          delegated = [];
          stored_subs = 0;
          budget;
          trees;
          combos;
        }
      in
      (* admission charges a candidate at the stored-singleton size it
         would actually occupy: its d-representation size when
         factorization is on and the measured ratio clears the gate, its
         flat cardinality otherwise.  Under mode [Off] this is exactly
         the pre-factorization cardinality test. *)
      let admission_size rel =
        let rows = Relation.cardinal rel in
        if Fconfig.mode () = Fconfig.Off then rows
        else
          Fconfig.effective_size ~rows ~size:(Frep.size (Frep.of_relation rel))
      in
      let n_live = ref 0 in
      let n_delegated = ref 0 in
      let cand_rows = ref 0 in
      let cand_eff = ref 0 in
      List.iter
        (fun c ->
          if combo_nonempty c then begin
            incr n_live;
            Obs.span "twopp.subproblem" @@ fun () ->
            let best, choice =
              decide r c.crel ~eval_budget:budget_lp ~budget
                ~size:admission_size
            in
            (match best with
            | Some (_, rel, eff) ->
                cand_rows := !cand_rows + Relation.cardinal rel;
                cand_eff := !cand_eff + eff
            | None -> ());
            (match choice with
            | Store (b, rel) ->
                Obs.set_attr "decision" (Json.String "stored");
                Obs.set_attr "target" (Json.String (vs_str b));
                Obs.set_attr "tuples" (Json.Int (Relation.cardinal rel))
            | Delegate sub ->
                (match best with
                | Some (_, _, eff) ->
                    (* best S-candidate existed but blew the budget *)
                    Obs.set_attr "best_eff" (Json.Int eff)
                | None -> ());
                incr n_delegated;
                Obs.set_attr "decision" (Json.String "delegated");
                Obs.set_attr "target" (Json.String (vs_str sub.t_target)));
            settle t c choice (ref [])
          end)
        combos;
      Obs.set_attr "subproblems" (Json.Int !n_live);
      Obs.set_attr "stored" (Json.Int t.stored_subs);
      Obs.set_attr "delegated" (Json.Int !n_delegated);
      Obs.set_attr "plans" (Json.Int (List.length t.delegated));
      Obs.set_attr "space" (Json.Int t.space);
      (t, !cand_rows, !cand_eff))

(* Adaptive space amplification: when the best candidates of a plain
   pass measurably compress as d-representations (cardinality at least
   1.5x their effective size), the same stored-singleton budget
   can fund a more aggressive split structure.  Rebuild with the LP
   budget scaled by the measured ratio (capped at 4x) — admission still
   charges every candidate's effective size against the {e true} budget,
   so the amplified structure occupies no more stored singletons than
   the budget allows; it just materializes more logical tuples per
   singleton.  The amplified pass is kept only if it strictly increases
   materialized tuples without delegating any subproblem the plain pass
   stored; on any failure the plain structure stands, so answers and
   worst-case behavior are unchanged when compression does not show. *)
let build ?(counted = false) (r : Rule.t) ~base ~budget =
  let s1, rows1, eff1 = build_pass ~counted r ~base ~budget ~budget_lp:budget in
  if Fconfig.mode () = Fconfig.Off || eff1 = 0 || 2 * rows1 < 3 * eff1 then s1
  else
    (* nearest-integer measured ratio, clamped to [2, 4] *)
    let amp = max 2 (min 4 ((rows1 + (eff1 / 2)) / eff1)) in
    match build_pass ~counted r ~base ~budget ~budget_lp:(budget * amp) with
    | s2, _, _ when s2.space > s1.space && s2.stored_subs >= s1.stored_subs ->
        Obs.incr "twopp.amplified";
        s2
    | _ -> s1
    | exception Failure _ -> s1

(* ------------------------------------------------------------------ *)
(* online                                                               *)
(* ------------------------------------------------------------------ *)

exception Plan_abort

(* Run a plan from [q_a] into [into], the accumulator of its T-target.
   A step whose kept variables are all of its join's makes no copy, and
   the last step joins and projects onto the target in one pass
   ({!Index.join_into}), so no row of the plan is copied on its way to
   the accumulator.  Each step's match count is held to [cap]. *)
let run_plan ~cap q_a plan ~into =
  let rec go acc = function
    | [] -> Relation.project_into acc ~into (* a plan with no step *)
    | [ { leaf; key; _ } ] ->
        if Index.join_into ~limit:cap acc (Live.index leaf key) ~into > cap
        then raise Plan_abort
    | { leaf; key; keep } :: rest ->
        let joined = Index.join acc (Live.index leaf key) in
        if Relation.cardinal joined > cap then raise Plan_abort;
        let arity = Schema.arity (Relation.schema joined) in
        go
          (if List.compare_length_with keep arity < 0 then
             Relation.project joined keep
           else joined)
          rest
  in
  go q_a plan

(* Every plan covers its T-target: the build extends a plan's atoms
   until they do, and [read_plans] rejects a plan that does not.  The
   rows a greedy plan wrote before it tripped its cap are rows of the
   target, and the accumulator is a set, so the safe plan reruns into
   it. *)
let run_into p ~q_a ~into =
  try
    run_plan ~cap:(sat_mul p.cap (max 1 (Relation.cardinal q_a))) q_a
      p.probe_plan ~into
  with Plan_abort ->
    Obs.incr "twopp.plan_abort";
    run_plan ~cap:max_int q_a p.safe_plan ~into

let online t ~q_a =
  List.fold_left
    (fun out p ->
      let b = p.t_target in
      let into, out =
        match List.assoc_opt b out with
        | Some rel -> (rel, out)
        | None ->
            let rel = Relation.create (Schema.of_list (Varset.to_list b)) in
            (rel, (b, rel) :: out)
      in
      run_into p ~q_a ~into;
      out)
    [] t.delegated
  |> List.rev

(* ------------------------------------------------------------------ *)
(* snapshot codec                                                       *)
(* ------------------------------------------------------------------ *)

module C = Stt_store.Codec

(* Snapshot layout of a plan list: each distinct leaf the plans read,
   once, in first-use order, then each plan's T-target, cap, and probe
   and safe orders as leaf numbers.  The steps' keys and kept variables
   are a function of the leaf order, so [read_plans] recomputes them
   with the build's own [steps_of_order]. *)
let write_plans e plans =
  let numbered =
    List.fold_left
      (fun acc { leaf; _ } ->
        if List.mem_assq leaf acc then acc else (leaf, List.length acc) :: acc)
      []
      (List.concat_map (fun p -> p.probe_plan @ p.safe_plan) plans)
    |> List.rev
  in
  C.write_list e (fun (l, _) -> Relation.write e (Live.relation l)) numbered;
  let write_order =
    C.write_list e (fun st -> C.write_uint e (List.assq st.leaf numbered))
  in
  C.write_list e
    (fun p ->
      Varset.write e p.t_target;
      C.write_uint e p.cap;
      write_order p.probe_plan;
      write_order p.safe_plan)
    plans

let read_plans (cqap : Cq.cqap) ~targets d =
  let access = cqap.Cq.access in
  let within = Varset.full cqap.Cq.cq.Cq.n in
  (* a leaf stands for an atom over the same variables; which of several
     such atoms does not matter, since a step reads only the variables *)
  let leaves =
    Array.of_list
      (C.read_list d (fun () ->
           let rel = Relation.read d in
           let vars = Varset.of_list (Schema.vars (Relation.schema rel)) in
           match
             List.find_opt
               (fun a -> Varset.equal (Cq.atom_vars a) vars)
               cqap.Cq.cq.Cq.atoms
           with
           | Some a -> (a, Live.of_relation rel)
           | None -> C.corrupt "plan leaf: its variables match no atom"))
  in
  C.read_list d (fun () ->
      let target = Varset.read ~within d in
      if not (List.exists (Varset.equal target) targets) then
        C.corrupt "plan: T-target %d is no loaded PMTD's T-view"
          (Varset.to_int target);
      let cap = C.read_uint d in
      let read_order () =
        let order =
          C.read_list d (fun () ->
              let i = C.read_uint d in
              if i >= Array.length leaves then
                C.corrupt "plan: leaf %d of %d" i (Array.length leaves);
              leaves.(i))
        in
        let covered =
          List.fold_left
            (fun acc (a, _) -> Varset.union acc (Cq.atom_vars a))
            access order
        in
        if not (Varset.subset target covered) then
          C.corrupt "plan: its leaves do not cover the T-target";
        steps_of_order ~access ~target order
      in
      let probe_plan = read_order () in
      let safe_plan = read_order () in
      { t_target = target; probe_plan; safe_plan; cap })

(* ------------------------------------------------------------------ *)
(* incremental maintenance                                              *)
(* ------------------------------------------------------------------ *)

(* a combo that was empty at build (never classified) just became
   non-empty: run the build's decision on its current leaves, at the
   true budget and flat sizes.  May raise [Failure] exactly like
   [build] when the rule has no T-targets and the stored candidates no
   longer fit the budget. *)
let activate t c out_events =
  settle t c
    (snd
       (decide t.rule c.crel ~eval_budget:t.budget ~budget:t.budget
          ~size:Relation.cardinal))
    out_events

(* one leaf change of [atom] in combo [c], already written to the leaf
   and so to every index of it, a delegated plan's steps included;
   decide a newly non-empty combo and record the stored-row (S-view)
   changes *)
let propagate t c atom tup sign out_events =
  match c.cdecision with
  | M_absent ->
      if sign && combo_nonempty c then activate t c out_events
  | M_delegated -> ()
  | M_stored b ->
      (* the delta joins run as index probes from the pinned tuple over
         the combo's other leaves, so they cost the tuple's
         neighbourhood, not the leaves' size *)
      let single =
        Relation.singleton
          (Relation.schema (Live.relation (List.assq atom c.crel)))
          tup
      in
      let others =
        List.filter_map
          (fun (a, l) -> if a == atom then None else Some l)
          c.crel
      in
      let keep = Varset.to_list b in
      if sign then
        store_rows t b (Live.join_from single others ~keep) out_events
      else begin
        let union_rel = stored_rel_for t b in
        (* candidate rows that may have lost their last witness: exactly
           the rows that were derivable through the removed tuple.  The
           delta join's intermediates are degree products, so it blows
           up when both endpoints of the removed tuple are heavy; the
           stored union, in contrast, is budget-bounded.  Run the delta
           join only while it stays small and otherwise recheck every
           stored row — either set over-approximates the victims. *)
        let limit = 4 * (1 + Relation.cardinal union_rel) in
        let cands =
          match Live.join_from ~limit single others ~keep with
          | delta -> Relation.to_list delta
          | exception Relation.Too_big -> Relation.to_list union_rel
        in
        (* last-witness check: a candidate row dies only if NO sibling
           combo with the same target still derives it — an early-exit
           witness search per combo, never an enumeration of the
           (degree-product many) witnesses around a heavy key *)
        let derived row c' =
          match c'.cdecision with
          | M_stored b' when Varset.equal b b' ->
              Live.exists
                (List.combine keep (Array.to_list row))
                (List.map snd c'.crel)
          | _ -> false
        in
        List.iter
          (fun row ->
            if
              Relation.mem union_rel row
              && not (List.exists (derived row) t.combos)
            then begin
              ignore (Relation.remove union_rel row);
              t.space <- t.space - 1;
              out_events := (b, row, false) :: !out_events
            end)
          cands
      end

let apply_delta t ~atom ~tuple ~add =
  let levs = ref [] in
  (if add then part_insert else part_delete)
    (snd (List.assq atom t.trees))
    tuple levs;
  let out_events = ref [] in
  (* each leaf change goes to every combo with that leaf for [atom]; a
     combo activated by one of them is decided on its leaves as they
     stand after all of them, so its later changes are already in *)
  let activated = ref [] in
  List.iter
    (fun (leaf, tup, sign) ->
      List.iter
        (fun c ->
          if List.assq atom c.crel == leaf && not (List.memq c !activated)
          then begin
            let absent = c.cdecision = M_absent in
            propagate t c atom tup sign out_events;
            if absent && c.cdecision <> M_absent then
              activated := c :: !activated
          end)
        t.combos)
    (List.rev !levs);
  List.rev !out_events
