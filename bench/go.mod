module github.com/domino5g/domino/bench

go 1.22

require github.com/domino5g/domino v0.0.0

replace github.com/domino5g/domino => ../
