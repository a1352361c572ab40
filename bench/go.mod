module reptile/bench

go 1.22

require reptile v0.0.0

replace reptile => ../
