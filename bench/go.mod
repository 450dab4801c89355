module github.com/securetf/securetf/bench

go 1.24

require github.com/securetf/securetf v0.0.0

replace github.com/securetf/securetf => ../
