package securetf

// EvalBlock is Accuracy's block of rows, for the tests at its edges.
const EvalBlock = evalBlock
