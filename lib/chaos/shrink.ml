module Fault_plan = Rtnet_channel.Fault_plan
module Oracle = Rtnet_analysis.Oracle

type 'c result = {
  sh_candidate : 'c;
  sh_report : Subject.report;
  sh_checks : int;
}

(* Split [l] into [n] chunks of near-equal length. *)
let chunks n l =
  let len = List.length l in
  let base = len / n and extra = len mod n in
  let rec go i rest acc =
    if i = n then List.rev acc
    else
      let size = base + if i < extra then 1 else 0 in
      let rec take k l acc' =
        if k = 0 then (List.rev acc', l)
        else
          match l with
          | [] -> (List.rev acc', [])
          | x :: tl -> take (k - 1) tl (x :: acc')
      in
      let chunk, rest = take size rest [] in
      go (i + 1) rest (chunk :: acc)
  in
  List.filter (fun c -> c <> []) (go 0 l [])

let minus l sub = List.filter (fun x -> not (List.memq x sub)) l

(* Zeller's ddmin over the atom list: try each chunk alone, then each
   complement, refining granularity until no subset reproduces. *)
let ddmin check atoms =
  let rec go atoms n =
    if List.length atoms <= 1 then atoms
    else
      let cs = chunks n atoms in
      match List.find_opt check cs with
      | Some c -> go c 2
      | None -> (
        let complements =
          if n = 2 then [] else List.map (fun c -> minus atoms c) cs
        in
        match List.find_opt check complements with
        | Some comp -> go comp (max (n - 1) 2)
        | None ->
          let len = List.length atoms in
          if n < len then go atoms (min len (2 * n)) else atoms)
  in
  go atoms 2

(* Replace crash window number [i] (in sp_crashes order) with [w]. *)
let with_crash sp i w =
  {
    sp with
    Fault_plan.sp_crashes =
      List.mapi (fun j w0 -> if j = i then w else w0) sp.Fault_plan.sp_crashes;
  }

let narrow_windows check sp =
  let sp = ref sp in
  List.iteri
    (fun i _ ->
      let continue = ref true in
      while !continue do
        let w = List.nth !sp.Fault_plan.sp_crashes i in
        match Fault_plan.split_crash w with
        | None -> continue := false
        | Some (left, right) ->
          if check (with_crash !sp i left) then sp := with_crash !sp i left
          else if check (with_crash !sp i right) then
            sp := with_crash !sp i right
          else continue := false
      done)
    !sp.Fault_plan.sp_crashes;
  !sp

let weaken_severities check sp =
  let sp = ref sp in
  let continue = ref true in
  (* Halve at most 6 times: below ~1.5% of the original rates further
     weakening cannot change which slots get hit on a short horizon. *)
  let budget = ref 6 in
  while !continue && !budget > 0 do
    let weaker = Fault_plan.scale_severity !sp 0.5 in
    if weaker <> !sp && check weaker then begin
      sp := weaker;
      decr budget
    end
    else continue := false
  done;
  !sp

let refine_plan ~check sp = weaken_severities check (narrow_windows check sp)

let run (type e s c) ((module S) : (e, s, c) Subject.t) ~oracle ~target cand =
  let checks = ref 0 in
  let check c =
    S.atoms c <> []
    &&
    (incr checks;
     Oracle.same_class (oracle c).Subject.rp_verdict target)
  in
  let cand =
    if not (check cand) then cand
    else
      let atoms = ddmin (fun l -> check (S.with_atoms cand l)) (S.atoms cand) in
      S.refine ~check (S.with_atoms cand atoms)
  in
  { sh_candidate = cand; sh_report = oracle cand; sh_checks = !checks }
