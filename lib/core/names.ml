open Aldsp_xml

let fn_uri = "fn"
let xs_uri = "xs"
let bea_uri = "fn-bea"

let fn local = Qname.make ~uri:fn_uri local
let bea local = Qname.make ~uri:bea_uri local

let async = bea "async"
let fail_over = bea "fail-over"
let timeout = bea "timeout"

let default_namespaces =
  [ ("fn", fn_uri); ("xs", xs_uri); ("fn-bea", bea_uri) ]
