package cpu

// AVX reports whether the CPU has AVX and the OS saves its registers.
var AVX = haveAVX()

// AVX2 reports whether it also has AVX2, whose 256-bit integer adds and
// compares the max pool's argmax lanes use.
var AVX2 = AVX && haveAVX2()

func haveAVX() bool

func haveAVX2() bool
