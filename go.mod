module github.com/seldel/seldel

go 1.24
