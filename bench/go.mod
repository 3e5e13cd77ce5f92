module diagnet/bench

go 1.22

require diagnet v0.0.0

replace diagnet => ../
