type severity = Info | Warning | Error

type t = {
  severity : severity;
  rule_id : string;
  space : string;
  path : string;
  message : string;
}

let make ?(space = "") ~severity ~rule_id ~path message =
  { severity; rule_id; space; path; message }

let severity_rank = function Info -> 0 | Warning -> 1 | Error -> 2
let is_error d = d.severity = Error

let count_errors ds = List.length (List.filter is_error ds)

let compare a b =
  (* (space, rule id, location) — the stable report order shared by the
     printers and the committed repros; severity only tie-breaks
     duplicates at the same locus *)
  match String.compare a.space b.space with
  | 0 -> (
    match String.compare a.rule_id b.rule_id with
    | 0 -> (
      match String.compare a.path b.path with
      | 0 -> Int.compare (severity_rank b.severity) (severity_rank a.severity)
      | c -> c)
    | c -> c)
  | c -> c

let sort ds = List.stable_sort compare ds

let pp_severity ppf s =
  Format.pp_print_string ppf
    (match s with Info -> "info" | Warning -> "warning" | Error -> "error")

let pp ppf d =
  if String.equal d.space "" then
    Format.fprintf ppf "%a[%s] %s: %s" pp_severity d.severity d.rule_id d.path
      d.message
  else
    Format.fprintf ppf "%a[%s] %s %s: %s" pp_severity d.severity d.rule_id
      d.space d.path d.message

let pp_list ppf ds =
  Format.pp_print_list ~pp_sep:Format.pp_print_newline pp ppf ds

(* --- the stable rule catalogue --- *)

type rule = { id : string; default_severity : severity; title : string }

let rules =
  [
    { id = "TD001"; default_severity = Error;
      title = "dangling Named target: alias references an unregistered type" };
    { id = "TD002"; default_severity = Error;
      title = "by-value struct cycle: the type's size is infinite" };
    { id = "TD003"; default_severity = Error;
      title = "invalid array length (negative is an error, zero a warning)" };
    { id = "TD004"; default_severity = Error;
      title = "duplicate struct field name" };
    { id = "TD005"; default_severity = Warning;
      title = "cross-architecture layout divergence (size/alignment differs)" };
    { id = "TD006"; default_severity = Error;
      title = "pointer field whose pointee type is never registered" };
    { id = "TD007"; default_severity = Error;
      title = "closure hint names an absent type or field, or a pointer-free field" };
    { id = "SP001"; default_severity = Error;
      title = "more than one active thread per session (overlapping requests)" };
    { id = "SP002"; default_severity = Error;
      title = "request never replied" };
    { id = "SP003"; default_severity = Error;
      title = "wire traffic or protocol mark outside an open session" };
    { id = "SP004"; default_severity = Error;
      title = "session close: invalidation multicast not preceded by write-back" };
    { id = "SP005"; default_severity = Error;
      title = "aborted session must invalidate and must not write back" };
    { id = "SP006"; default_severity = Error;
      title = "frame from/to a crashed endpoint after its crash mark" };
    { id = "SP007"; default_severity = Error;
      title = "targeted invalidation misses a space that received a copy this session" };
    { id = "SP008"; default_severity = Error;
      title = "concurrently open sessions wrote the same datum root without a queue/abort between them" };
    { id = "SP009"; default_severity = Error;
      title = "breaker/shed discipline: no admitted session may target a peer crashed since before it began, and none may begin after a typed shed without re-admission" };
    { id = "SP010"; default_severity = Error;
      title = "offload-call must target a space in the session's touched footprint, never a peer crashed since before the session began" };
    { id = "CC001"; default_severity = Error;
      title = "session footprints interfere: both sessions may write the same region" };
    { id = "CC002"; default_severity = Error;
      title = "session footprints interfere: one session may write what the other reads" };
    { id = "CC003"; default_severity = Warning;
      title = "footprint widened to the whole reachable subgraph through a recursive field" };
    { id = "CC004"; default_severity = Warning;
      title = "footprint escapes through a callback/funref: effects not analyzable" };
    { id = "CC005"; default_severity = Error;
      title = "session frees a datum inside another session's footprint" };
    { id = "CC101"; default_severity = Error;
      title = "unordered write-write: two spaces wrote a datum without happens-before" };
    { id = "CC102"; default_severity = Error;
      title = "stale access: a cached copy outlived its invalidation, or a write never reached home" };
    { id = "CC103"; default_severity = Error;
      title = "access to a freed datum's region" };
  ]

let find_rule id = List.find_opt (fun r -> String.equal r.id id) rules

let pp_rules ppf () =
  List.iter
    (fun r ->
      Format.fprintf ppf "%s  %-7s  %s@." r.id
        (Format.asprintf "%a" pp_severity r.default_severity)
        r.title)
    rules

let pp_rules_markdown ppf () =
  Format.fprintf ppf "| Rule | Severity | Description |@.";
  Format.fprintf ppf "|------|----------|-------------|@.";
  List.iter
    (fun r ->
      Format.fprintf ppf "| %s | %a | %s |@." r.id pp_severity
        r.default_severity r.title)
    rules
