package nn

// UseKernel is useKernel, for the tests of package nn_test.
var UseKernel = useKernel
