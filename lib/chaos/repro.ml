module Json = Rtnet_util.Json
module Oracle = Rtnet_analysis.Oracle

let ( let* ) = Result.bind

type ('e, 'c) t = {
  re_env : 'e;
  re_candidate : 'c;
  re_verdict : Oracle.verdict;
  re_fingerprint : string;
  re_note : string;
}

let make ~env ~candidate ~report ~note =
  {
    re_env = env;
    re_candidate = candidate;
    re_verdict = report.Subject.rp_verdict;
    re_fingerprint = report.Subject.rp_fingerprint;
    re_note = note;
  }

let version_key (type e s c) ((module S) : (e, s, c) Subject.t) =
  S.tag ^ "_repro_version"

let to_json (type e s c) ((module S) as subject : (e, s, c) Subject.t) t =
  Json.Obj
    (((version_key subject, Json.Int S.version)
     :: S.to_json t.re_env t.re_candidate)
    @ [
        ("verdict", Oracle.to_json t.re_verdict);
        ("fingerprint", Json.String t.re_fingerprint);
        ("note", Json.String t.re_note);
      ])

let of_json (type e s c) ((module S) as subject : (e, s, c) Subject.t) j =
  let key = version_key subject in
  let* v = Result.bind (Json.field key j) Json.get_int in
  if v < 1 || v > S.version then
    Error (Printf.sprintf "unsupported %s %d" key v)
  else
    let* env, candidate = S.of_json ~version:v j in
    let* verdict = Result.bind (Json.field "verdict" j) Oracle.of_json in
    let* fingerprint = Result.bind (Json.field "fingerprint" j) Json.get_string in
    let* note = Json.field_or "note" ~default:"" Json.get_string j in
    Ok
      {
        re_env = env;
        re_candidate = candidate;
        re_verdict = verdict;
        re_fingerprint = fingerprint;
        re_note = note;
      }

let save subject ~path t = Json.to_file path (to_json subject t)

let load subject ~path = Json.load_file path (of_json subject)

type replay = {
  rr_report : Subject.report;
  rr_verdict_ok : bool;
  rr_fingerprint_ok : bool;
}

let replay ?postmortem subject t =
  let report = Subject.run subject ?postmortem t.re_env t.re_candidate in
  {
    rr_report = report;
    rr_verdict_ok = report.Subject.rp_verdict = t.re_verdict;
    rr_fingerprint_ok =
      String.equal report.Subject.rp_fingerprint t.re_fingerprint;
  }

type any = Any : ('e, 's, 'c) Subject.t * ('e, 'c) t -> any

let any_of_json j =
  let has subject = Json.member (version_key subject) j <> None in
  let decode s = Result.map (fun t -> Any (s, t)) (of_json s j) in
  if has (module Federated) then decode (module Federated)
  else if has (module Admission) then decode (module Admission)
  else decode (module Plain)

let load_any ~path = Json.load_file path any_of_json
