type t = No_access | Read_only | Read_write

let allows_read = function No_access -> false | Read_only | Read_write -> true
let allows_write = function No_access | Read_only -> false | Read_write -> true
let equal a b = a = b

let to_string = function
  | No_access -> "---"
  | Read_only -> "r--"
  | Read_write -> "rw-"

