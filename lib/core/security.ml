open Aldsp_xml
module Token = Aldsp_tokens.Token
module Token_stream = Aldsp_tokens.Token_stream

type user = { user_name : string; roles : string list }

let admin = { user_name = "admin"; roles = [ "admin" ] }

type on_deny = Remove | Replace of Atomic.t

type resource_policy = {
  resource_label : string;
  resource_path : Qname.t list;
  allowed_roles : string list;
  on_deny : on_deny;
}

type t = {
  function_acl : (Qname.t, string list) Hashtbl.t;
  mutable resources : resource_policy list;
  audit : Audit.t option;
}

let create ?audit () =
  { function_acl = Hashtbl.create 16; resources = []; audit }

let restrict_function t fn ~roles = Hashtbl.replace t.function_acl fn roles

let add_resource t policy = t.resources <- t.resources @ [ policy ]

(* holders of the built-in "admin" role pass every policy *)
let has_role user roles =
  List.mem "admin" user.roles
  || List.exists (fun r -> List.mem r user.roles) roles

let audit_record t ~category ?detail summary =
  match t.audit with
  | Some a -> Audit.record a ~category ?detail summary
  | None -> ()

let check_call t user fn =
  match Hashtbl.find_opt t.function_acl fn with
  | None -> Ok ()
  | Some roles ->
    if has_role user roles then begin
      audit_record t ~category:"security"
        (Printf.sprintf "allow call %s by %s" (Qname.to_string fn)
           user.user_name);
      Ok ()
    end
    else begin
      audit_record t ~category:"security"
        (Printf.sprintf "deny call %s by %s" (Qname.to_string fn)
           user.user_name);
      Error
        (Printf.sprintf "access denied: %s may not call %s" user.user_name
           (Qname.to_string fn))
    end

let failing t user =
  List.filter (fun p -> not (has_role user p.allowed_roles)) t.resources

(* The token filter's position: passing tokens through, letting a
   replaced element's attributes through before its replacement value,
   or skipping a subtree — [depth] elements are open in it — and running
   [closed] once it has ended. [capture] sees every skipped token. *)
type filter_state =
  | Pass
  | Attributes of Atomic.t
  | Skip of {
      mutable depth : int;
      capture : Token.t -> unit;
      closed : unit -> unit;
    }

(* [path] holds the names of the open elements, innermost first; a policy
   fires at the start tag where it equals the policy's path reversed.
   Nothing inside a removed or replaced subtree is examined, so a policy
   nested in one never fires. *)
let filter_tokens t user (sink : Token_stream.sink) =
  match failing t user with
  | [] -> sink
  | failing ->
    let push = sink.token in
    let policies = List.map (fun p -> (List.rev p.resource_path, p)) failing in
    let path = ref [] in
    let state = ref Pass in
    let event verb label =
      Printf.sprintf "%s resource %s for %s" verb label user.user_name
    in
    (* a removed subtree is audited once it has ended; at [Detailed] the
       detail is its bytes, written from the skipped tokens *)
    let remove label =
      let capture, detail =
        match t.audit with
        | Some a when Audit.level a = Audit.Detailed ->
          let buf = Buffer.create 256 in
          let w = Token_stream.chunk_writer (Buffer.add_string buf) in
          ( Token_stream.chunk_write w,
            fun () ->
              Token_stream.chunk_close w;
              Some (Buffer.contents buf) )
        | _ -> (ignore, fun () -> None)
      in
      let closed () =
        audit_record t ~category:"security" ?detail:(detail ())
          (event "remove" label)
      in
      Skip { depth = 0; capture; closed }
    in
    let rec filter token =
      match (!state, token) with
      | Pass, Token.Start_element name -> (
        let here = name :: !path in
        match
          List.find_opt
            (fun (rev, _) -> List.equal Qname.equal rev here)
            policies
        with
        | None ->
          path := here;
          push token
        | Some (_, { on_deny = Remove; resource_label; _ }) ->
          state := remove resource_label;
          filter token
        | Some (_, { on_deny = Replace v; resource_label; _ }) ->
          audit_record t ~category:"security" (event "replace" resource_label);
          push token;
          state := Attributes v)
      | Pass, Token.End_element ->
        (match !path with _ :: up -> path := up | [] -> ());
        push token
      | Pass, _ | Attributes _, Token.Attribute _ -> push token
      | Attributes v, _ ->
        push (Token.Atom v);
        state :=
          Skip
            { depth = 1;
              capture = ignore;
              closed = (fun () -> push Token.End_element) };
        filter token
      | Skip s, _ -> (
        s.capture token;
        match token with
        | Token.Start_element _ -> s.depth <- s.depth + 1
        | Token.End_element ->
          s.depth <- s.depth - 1;
          if s.depth = 0 then begin
            state := Pass;
            s.closed ()
          end
        | _ -> ())
    in
    Token_stream.token_sink filter
