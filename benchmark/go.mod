module github.com/seldel/seldel/benchmark

go 1.24

require github.com/seldel/seldel v0.0.0

replace github.com/seldel/seldel => ../
