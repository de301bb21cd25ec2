/* The nearest-candidate scans of _kernels_py.py, compiled: minimal L1
   distance to (ax, ay), first index on ties, -1 when the input is empty or
   nothing is eligible.  Arrays are read through the buffer protocol, so plain
   setuptools builds this without numpy headers; a buffer that is not 1-d,
   C-contiguous and of the expected format is refused, never reinterpreted. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

/* Acquire `obj` as a 1-d C-contiguous buffer whose struct format is `format`. */
static int
get_vector(PyObject *obj, const char *format, const char *name, Py_buffer *view)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    const char *got = view->format != NULL ? view->format : "B";  /* NULL means bytes */
    if (view->ndim != 1 || strcmp(got, format) != 0) {
        PyErr_Format(PyExc_TypeError, "%s must be a 1-d buffer of format '%s', not %d-d '%s'",
                     name, format, view->ndim, got);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* nearest_index(xs, ys, ax, ay) or, with a mask, nearest_index_masked(xs, ys, eligible, ax, ay) */
static PyObject *
scan(PyObject *const *args, Py_ssize_t nargs, int masked)
{
    const char *fname = masked ? "nearest_index_masked" : "nearest_index";
    if (nargs != 4 + masked)
        return PyErr_Format(PyExc_TypeError, "%s() takes %d arguments (%zd given)", fname,
                            4 + masked, nargs);
    double ax = PyFloat_AsDouble(args[2 + masked]);
    if (ax == -1.0 && PyErr_Occurred())
        return NULL;
    double ay = PyFloat_AsDouble(args[3 + masked]);
    if (ay == -1.0 && PyErr_Occurred())
        return NULL;

    PyObject *result = NULL;
    Py_buffer xs, ys, eligible;
    if (get_vector(args[0], "d", "xs", &xs) < 0)
        return NULL;
    if (get_vector(args[1], "d", "ys", &ys) < 0)
        goto release_xs;
    if (masked && get_vector(args[2], "B", "eligible", &eligible) < 0)
        goto release_ys;

    Py_ssize_t n = xs.shape[0];
    if (ys.shape[0] != n || (masked && eligible.shape[0] != n)) {
        PyErr_Format(PyExc_ValueError, "%s(): arrays have unequal lengths", fname);
    } else {
        const double *x = xs.buf, *y = ys.buf;
        const unsigned char *ok = masked ? eligible.buf : NULL;
        Py_ssize_t best = -1;
        double best_d = INFINITY;
        for (Py_ssize_t i = 0; i < n; i++) {
            if (ok != NULL && ok[i] == 0)
                continue;
            double d = fabs(x[i] - ax) + fabs(y[i] - ay);
            if (d < best_d) {
                best_d = d;
                best = i;
            }
        }
        result = PyLong_FromSsize_t(best);
    }
    if (masked)
        PyBuffer_Release(&eligible);
release_ys:
    PyBuffer_Release(&ys);
release_xs:
    PyBuffer_Release(&xs);
    return result;
}

static PyObject *
nearest_index(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    return scan(args, nargs, 0);
}

static PyObject *
nearest_index_masked(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    return scan(args, nargs, 1);
}

static PyMethodDef methods[] = {
    {"nearest_index", (PyCFunction)(void (*)(void))nearest_index, METH_FASTCALL,
     "Index of the candidate with minimal L1 distance to (ax, ay); first index on ties."},
    {"nearest_index_masked", (PyCFunction)(void (*)(void))nearest_index_masked, METH_FASTCALL,
     "Like nearest_index but only over candidates with a nonzero mask entry."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_scan", "Compiled nearest-candidate scans.", 0, methods,
};

PyMODINIT_FUNC
PyInit__scan(void)
{
    return PyModule_Create(&module);
}
