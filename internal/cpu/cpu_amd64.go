package cpu

// AVX reports whether the CPU has AVX and the OS saves its registers.
var AVX = haveAVX()

func haveAVX() bool
