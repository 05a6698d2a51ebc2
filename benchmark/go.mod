module pyxis/benchmark

go 1.24

require pyxis v0.0.0

replace pyxis => ../
