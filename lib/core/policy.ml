module Mlp = Canopy_nn.Mlp
module Tree = Canopy_distill.Tree

type t = [ `Mlp of Mlp.t | `Tree of Tree.t ]

let in_dim = function
  | `Mlp m -> Mlp.in_dim m
  | `Tree tr -> Tree.in_dim tr

let out_dim = function
  | `Mlp m -> Mlp.out_dim m
  | `Tree tr -> Tree.out_dim tr

let predict_rows_into ~dst policy x =
  match policy with
  | `Mlp m -> Mlp.forward_eval_into ~dst m x
  | `Tree tr -> Tree.predict_rows_into ~dst tr x
