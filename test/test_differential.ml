(* Randomized differential testing: the full pipeline (PMTD enumeration,
   disjunctive rules, 2PP preprocessing, Online Yannakakis) against the
   brute-force reference evaluator, over 200 random CQAP instances.

   Each instance draws a random small query (≤ 5 variables), a random
   database (≤ 64 tuples per relation over a small domain), a random
   access request set and a random space budget; the engine's answer must
   match [Db.eval_access] tuple-for-tuple, and the stored space must stay
   under the budget-implied bound

     Engine.space ≤ (Σ_p #s_views p) × (Σ_ρ stored_subproblems ρ × budget).

   Everything is derived from a fixed base seed, so a failure report's
   seed reproduces the instance exactly. *)

open Stt_relation
open Stt_hypergraph
open Stt_core
open Diff_harness

let sorted r = List.sort compare (List.map Array.to_list (Relation.to_list r))

(* ------------------------------------------------------------------ *)
(* the harness                                                          *)
(* ------------------------------------------------------------------ *)

let n_instances = 200
let base_seed = 0xC0FFEE

let pp_tuples fmt ts =
  Format.fprintf fmt "{%s}"
    (String.concat "; "
       (List.map
          (fun t -> "(" ^ String.concat "," (List.map string_of_int t) ^ ")")
          ts))

(* The instance's relations again, each tuple weighted from an RNG of
   its own, so SUM, MIN and MAX differ from COUNT while the instance
   draws stay as they are. *)
let weighted inst =
  let rng = Stt_workload.Rng.create (inst.seed lxor 0x3E16) in
  let db = Db.create () in
  List.iter
    (fun (a : Cq.atom) ->
      if not (Db.mem db a.Cq.rel) then
        let rows = Relation.to_list (Db.relation inst.db a) in
        Db.add_weighted db a.Cq.rel
          (List.map
             (fun tup -> (tup, Stt_workload.Rng.int rng 10))
             (List.sort Tuple.compare rows)))
    inst.cqap.Cq.cq.Cq.atoms;
  { inst with db }

(* Aggregate differential: for every semiring kind, [answer_agg] must
   equal the brute-force fold over the flat annotated join, and its op
   count must not exceed materialize-then-fold beyond the fixed table
   overhead of two ops per request row (one probe, one combined
   tuple).  At table budget 100,000 every request hits a complete
   table; at budget 0 every request that has a derivation misses, and
   is answered online from its rows. *)
let check_aggregates i seed inst idx =
  let brute_factors k =
    List.map
      (fun (a : Cq.atom) ->
        Stt_semiring.Eval.of_relation k (Db.relation inst.db a))
      inst.cqap.Cq.cq.Cq.atoms
  in
  List.iter
    (fun budget ->
      Engine.enable_agg idx ~db:inst.db ~budget;
      List.iter
        (fun k ->
          let got, cost = Engine.answer_agg idx k ~q_a:inst.q_a in
          let expected =
            Stt_semiring.Eval.brute k (brute_factors k) ~q_a:inst.q_a
          in
          if got <> expected then
            Alcotest.failf
              "instance %d (seed %d), table budget %d: %s aggregate \
               disagrees with brute fold@\n\
               query: %a@\nexpected %d got %d"
              i seed budget
              (Stt_semiring.Semiring.name k)
              Cq.pp_cqap inst.cqap expected got;
          let _, base_cost = Engine.agg_baseline idx k ~q_a:inst.q_a in
          let allowed =
            Cost.total base_cost + (2 * Relation.cardinal inst.q_a)
          in
          if Cost.total cost > allowed then
            Alcotest.failf
              "instance %d (seed %d), table budget %d: %s aggregate cost %d \
               exceeds materialize-then-fold budget %d"
              i seed budget
              (Stt_semiring.Semiring.name k)
              (Cost.total cost) allowed)
        Stt_semiring.Semiring.all)
    [ 100_000; 0 ]

let run_one i =
  let rec attempt k =
    let seed = base_seed + (1000 * i) + k in
    let inst = weighted (gen_instance seed) in
    match build_index inst with
    | exception Skip reason ->
        if k >= 20 then
          Alcotest.failf "instance %d: no buildable query after %d tries (%s)"
            i (k + 1) reason
        else attempt (k + 1)
    | idx, used_budget ->
        let expected = sorted (Db.eval_access inst.db inst.cqap ~q_a:inst.q_a) in
        let got = sorted (Engine.answer idx ~q_a:inst.q_a) in
        if got <> expected then
          Alcotest.failf
            "instance %d (seed %d): engine disagrees with reference@\n\
             query: %a@\n\
             budget: %d (used %d)@\n\
             expected %a@\ngot      %a"
            i seed Cq.pp_cqap inst.cqap inst.budget used_budget pp_tuples
            expected pp_tuples got;
        let bound = space_bound idx ~budget:used_budget in
        if Engine.space idx > bound then
          Alcotest.failf
            "instance %d (seed %d): space %d exceeds budget-implied bound %d \
             (budget %d)"
            i seed (Engine.space idx) bound used_budget;
        check_aggregates i seed inst idx
  in
  attempt 0

let test_differential () =
  for i = 0 to n_instances - 1 do
    run_one i
  done

(* ------------------------------------------------------------------ *)
(* factorization differential                                           *)
(* ------------------------------------------------------------------ *)

module Fconfig = Stt_factorized.Config
module Frep = Stt_factorized.Frep

(* Forced-on vs forced-off factorized storage must be answer-invariant
   on every instance, and every d-representation must enumerate with
   constant delay: exactly one probe up front, then one tuple per
   emitted row and nothing else. *)
let check_delay_invariant i seed rel =
  if not (Relation.is_empty rel) then begin
    let f = Cost.with_counting false (fun () -> Frep.of_relation rel) in
    let emitted = ref 0 in
    let (), c =
      Cost.measure (fun () -> Frep.enum_iter f (fun _ -> incr emitted))
    in
    if !emitted <> Relation.cardinal rel then
      Alcotest.failf
        "instance %d (seed %d): d-rep enumerated %d of %d tuples" i seed
        !emitted (Relation.cardinal rel);
    if
      c.Cost.probes <> 1
      || c.Cost.tuples <> !emitted
      || c.Cost.scans <> 0
    then
      Alcotest.failf
        "instance %d (seed %d): enumeration delay {probes=%d; tuples=%d; \
         scans=%d} is not 1 probe + 1 tuple/row over %d rows"
        i seed c.Cost.probes c.Cost.tuples c.Cost.scans !emitted
  end

let run_one_factorized i =
  let rec attempt k =
    let seed = base_seed + (1000 * i) + k in
    let inst = gen_instance seed in
    Fconfig.set_mode Fconfig.Off;
    match build_index inst with
    | exception Skip _ -> if k < 20 then attempt (k + 1)
    | idx_off, _ -> (
        let off = sorted (Engine.answer idx_off ~q_a:inst.q_a) in
        Fconfig.set_mode Fconfig.Forced;
        (match build_index inst with
        | exception Skip reason ->
            Alcotest.failf
              "instance %d (seed %d): buildable flat but not under forced \
               factorization (%s)"
              i seed reason
        | idx_on, _ ->
            let on = sorted (Engine.answer idx_on ~q_a:inst.q_a) in
            if on <> off then
              Alcotest.failf
                "instance %d (seed %d): forced factorization changes \
                 answers@\nquery: %a@\nflat %a@\nfactorized %a"
                i seed Cq.pp_cqap inst.cqap pp_tuples off pp_tuples on);
        List.iter
          (fun (a : Cq.atom) ->
            check_delay_invariant i seed (Db.relation inst.db a))
          inst.cqap.Cq.cq.Cq.atoms)
  in
  attempt 0

let test_factorization_modes () =
  let saved = Fconfig.mode () in
  Fun.protect ~finally:(fun () -> Fconfig.set_mode saved) @@ fun () ->
  for i = 0 to n_instances - 1 do
    run_one_factorized i
  done

let () =
  Alcotest.run "differential"
    [
      ( "differential",
        [
          Alcotest.test_case
            (Printf.sprintf "%d random instances vs reference" n_instances)
            `Slow test_differential;
          Alcotest.test_case
            (Printf.sprintf
               "%d instances, factorization forced on == forced off"
               n_instances)
            `Slow test_factorization_modes;
        ] );
    ]
