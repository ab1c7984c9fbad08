module aptrace/bench

go 1.22

require aptrace v0.0.0

replace aptrace => ../
