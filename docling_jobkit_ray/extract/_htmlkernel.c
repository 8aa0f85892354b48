/* One-pass HTML extraction kernel: tokenizer -> block state machine ->
 * classify -> assemble -> doc_json over a PEP 393 string, with no Python
 * object created per token or per block.
 *
 * The executable specification is extract/html.py: `_TOKEN_RE.split` +
 * `_build_blocks` (the tokenizer and the state machine), `classify_blocks`,
 * `assemble` and `ExtractedDoc.doc_json`.  This file reproduces their output
 * bytes; tests/test_native_kernel.py checks it differentially against them.
 * The tag table, the raw-text tag names, the block kinds, the unescape
 * callable and the fixed text of the doc_json formats all come from html.py
 * through `setup()`, so both paths read one table.
 *
 * Regex semantics reproduced here (see `_TOKEN_RE`):
 *   - whitespace is Py_UNICODE_ISSPACE, what sre's `\s` and str.split() use;
 *   - tag names are ASCII [a-zA-Z][a-zA-Z0-9:_-]*;
 *   - the raw-text close search `(?i:</name)` follows sre's ignore-case
 *     literals: ASCII case pairs, plus U+0130/U+0131 for 'i' and U+017F for
 *     's' (the only extra matches for the letters of the raw-text names);
 *   - a text run containing '&' is passed whole to `unescape`.
 * Every scan moves forward only, so the kernel is linear in the input.
 *
 * extract(text, max_link_density, min_paragraph_chars, deadline) returns
 * (text, spans, doc_json, n_blocks_total, n_blocks_kept), or None once
 * CLOCK_MONOTONIC (time.monotonic's clock) passes `deadline`, checked every
 * 64 KiB of input; `deadline` None means no limit. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>
#include <time.h>

#define CHECK_EVERY 65536
#define COPY_CHUNK 4096 /* input chars copied per text buffer reservation */
#define MAX_TAG_LEN 16
#define N_RAW_MAX 8

enum { F_BLOCK = 1, F_VOID = 2, F_SKIP = 4, F_BOILER = 8, F_ANCHOR = 16, F_TABLE = 32 };
enum { K_NONE = 0, K_PARAGRAPH, K_HEADING, K_LIST_ITEM, K_TABLE, N_KINDS };

typedef struct {
    char name[MAX_TAG_LEN + 1];
    unsigned char len, flags, kind;
} TagInfo;

/* configuration set once by setup() */
static TagInfo *g_tags;        /* bucketed by first letter */
static int g_bucket_start[27]; /* g_tags[g_bucket_start[c]..g_bucket_start[c+1]) */
static char g_raw[N_RAW_MAX][MAX_TAG_LEN + 1];
static int g_raw_len[N_RAW_MAX];
static int g_n_raw;
static PyObject *g_kind_obj[N_KINDS]; /* the KIND_* str objects */
static const char *g_kind_str[N_KINDS];
static Py_ssize_t g_kind_len[N_KINDS];
static PyObject *g_unescape;
static PyObject *g_key_start, *g_key_end, *g_key_kind;
/* the text of _DOC_JSON_FMT around its four placeholders (n_blocks_kept,
 * n_blocks_total, n_chars, spans) and of _SPAN_JSON_FMT around its three
 * (end, kind, start) */
enum { N_DOC_FRAGS = 5, N_SPAN_FRAGS = 4 };
static PyObject *g_frag_obj[N_DOC_FRAGS + N_SPAN_FRAGS];
static const char *g_frag[N_DOC_FRAGS + N_SPAN_FRAGS];
static Py_ssize_t g_frag_len[N_DOC_FRAGS + N_SPAN_FRAGS];
static Py_ssize_t g_doc_frags_len, g_span_frags_len;
#define DOC_FRAG(k) (k)
#define SPAN_FRAG(k) (N_DOC_FRAGS + (k))

typedef struct {
    Py_ssize_t start, len, anchor;
    Py_UCS4 maxbits; /* OR of the block's chars: same PEP 393 kind as its max */
    unsigned char kind, boiler, good;
} Block;

typedef struct {
    PyObject *src;
    Py_ssize_t n;
    /* collapsed text of every block, back to back */
    Py_UCS4 *buf;
    Py_ssize_t len, cap;
    /* the open block: buf[cur..len) */
    Py_ssize_t cur, anchor_chars;
    Py_UCS4 cur_bits;
    int pending_space;
    /* the state machine's counters */
    Py_ssize_t skip, boiler, anchor, table;
    unsigned char *kinds;
    Py_ssize_t n_kinds, kinds_cap;
    Block *blocks;
    Py_ssize_t n_blocks, blocks_cap;
    /* deadline */
    int has_deadline;
    double deadline;
    Py_ssize_t next_check;
} State;

#define TIMED_OUT (-2)

/* ------------------------------------------------------------ helpers */

static inline int is_space(Py_UCS4 c) { return Py_UNICODE_ISSPACE(c); }

static inline int is_alpha(Py_UCS4 c) { return c < 128 && ((c | 0x20) - 'a') < 26; }

static inline int is_name(Py_UCS4 c)
{
    return is_alpha(c) || (c >= '0' && c <= '9') || c == ':' || c == '_' || c == '-';
}

/* sre ignore-case equality of a code point with an ASCII lower-case letter */
static inline int ci_letter(Py_UCS4 c, char lower)
{
    if (c < 128)
        return (Py_UCS4)(c | 0x20) == (Py_UCS4)lower && is_alpha(c);
    if (lower == 'i')
        return c == 0x130 || c == 0x131;
    if (lower == 's')
        return c == 0x17f;
    return 0;
}

static inline __attribute__((always_inline)) Py_UCS4
rd(const void *d, const int kind, Py_ssize_t i)
{
    switch (kind) {
    case PyUnicode_1BYTE_KIND:
        return ((const Py_UCS1 *)d)[i];
    case PyUnicode_2BYTE_KIND:
        return ((const Py_UCS2 *)d)[i];
    default:
        return ((const Py_UCS4 *)d)[i];
    }
}

static int expired(State *st)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9 > st->deadline;
}

/* Called whenever the scan reaches st->next_check: -> 0, or TIMED_OUT. */
static int poll_deadline(State *st, Py_ssize_t pos)
{
    if (st->has_deadline && expired(st))
        return TIMED_OUT;
    st->next_check = st->has_deadline ? pos + CHECK_EVERY : PY_SSIZE_T_MAX;
    return 0;
}

/* first index >= i holding `ch`, or n; TIMED_OUT when the deadline passed */
static inline __attribute__((always_inline)) Py_ssize_t
find_char(State *st, const void *d, const int kind, Py_ssize_t i, Py_UCS4 ch)
{
    const Py_ssize_t n = st->n;
    for (;;) {
        Py_ssize_t lim = st->next_check < n ? st->next_check : n;
        if (kind == PyUnicode_1BYTE_KIND && ch < 256) {
            const Py_UCS1 *p = memchr((const Py_UCS1 *)d + i, (int)ch, lim > i ? lim - i : 0);
            i = p ? p - (const Py_UCS1 *)d : (lim > i ? lim : i);
            if (p)
                return i;
        }
        else {
            for (; i < lim; i++)
                if (rd(d, kind, i) == ch)
                    return i;
        }
        if (i >= n)
            return n;
        if (poll_deadline(st, i) == TIMED_OUT)
            return TIMED_OUT;
    }
}

static int grow(void **p, Py_ssize_t *cap, Py_ssize_t need, size_t item)
{
    Py_ssize_t c = *cap ? *cap * 2 : 16;
    if (c < need)
        c = need;
    void *q = PyMem_Realloc(*p, (size_t)c * item);
    if (!q) {
        PyErr_NoMemory();
        return -1;
    }
    *p = q;
    *cap = c;
    return 0;
}

static inline int buf_reserve(State *st, Py_ssize_t extra)
{
    if (st->len + extra <= st->cap)
        return 0;
    return grow((void **)&st->buf, &st->cap, st->len + extra, sizeof(Py_UCS4));
}

/* ------------------------------------------------- block state machine */

/* A block tag: the open block, if its collapsed text is non-empty, becomes
 * a Block (`_build_blocks`'s flush). */
static int flush(State *st)
{
    Py_ssize_t n = st->len - st->cur;
    if (n > 0) {
        if (st->n_blocks == st->blocks_cap &&
            grow((void **)&st->blocks, &st->blocks_cap, st->n_blocks + 1, sizeof(Block)) < 0)
            return -1;
        Block *b = &st->blocks[st->n_blocks++];
        b->start = st->cur;
        b->len = n;
        b->anchor = st->anchor_chars < n ? st->anchor_chars : n;
        b->maxbits = st->cur_bits;
        b->kind = st->n_kinds ? st->kinds[st->n_kinds - 1] : st->table ? K_TABLE : K_PARAGRAPH;
        b->boiler = st->boiler > 0;
        b->good = 0;
    }
    st->anchor_chars = 0;
    st->cur = st->len;
    st->cur_bits = 0;
    st->pending_space = 0;
    return 0;
}

static inline __attribute__((always_inline)) const TagInfo *
lookup_tag(const void *d, const int kind, Py_ssize_t a, Py_ssize_t e)
{
    Py_ssize_t n = e - a;
    if (n > MAX_TAG_LEN)
        return NULL;
    char name[MAX_TAG_LEN];
    for (Py_ssize_t k = 0; k < n; k++) {
        Py_UCS4 c = rd(d, kind, a + k);
        name[k] = (char)(is_alpha(c) ? (c | 0x20) : c);
    }
    int b = name[0] - 'a';
    for (int t = g_bucket_start[b]; t < g_bucket_start[b + 1]; t++)
        if (g_tags[t].len == n && memcmp(g_tags[t].name, name, (size_t)n) == 0)
            return &g_tags[t];
    return NULL;
}

static int apply_tag(State *st, const TagInfo *t, int end_tag, int self_closing)
{
    int f = t->flags;
    if ((f & F_BLOCK) && flush(st) < 0)
        return -1;
    if (f & F_VOID)
        return 0;
    if (end_tag) {
        if ((f & F_SKIP) && st->skip)
            st->skip--;
        if ((f & F_BOILER) && st->boiler)
            st->boiler--;
        if ((f & F_ANCHOR) && st->anchor)
            st->anchor--;
        if (t->kind && st->n_kinds && st->kinds[st->n_kinds - 1] == t->kind)
            st->n_kinds--;
        if ((f & F_TABLE) && st->table)
            st->table--;
    }
    else if (!self_closing) {
        if (f & F_SKIP)
            st->skip++;
        if (f & F_BOILER)
            st->boiler++;
        if (f & F_ANCHOR)
            st->anchor++;
        if (t->kind) {
            if (st->n_kinds == st->kinds_cap &&
                grow((void **)&st->kinds, &st->kinds_cap, st->n_kinds + 1, 1) < 0)
                return -1;
            st->kinds[st->n_kinds++] = t->kind;
        }
        if (f & F_TABLE)
            st->table++;
    }
    return 0;
}

/* At the end of a text run that began at buf[len0]: inside an anchor, the
 * run's own collapsed length counts as anchor chars (a separator joining
 * it to earlier text does not). */
static inline void end_run(State *st, Py_ssize_t len0)
{
    if (st->anchor && st->len > len0)
        st->anchor_chars += st->len - len0 - (st->buf[len0] == ' ');
}

/* Append one char to the open block, collapsing whitespace: whitespace
 * after the block's first char owes one ' ' before the next char. */
static inline void put_char(State *st, Py_UCS4 c)
{
    if (is_space(c)) {
        st->pending_space = st->len > st->cur;
        return;
    }
    if (st->pending_space)
        st->buf[st->len++] = ' ';
    st->pending_space = 0;
    st->buf[st->len++] = c;
    st->cur_bits |= c;
}

/* The run [a, r) contains '&': feed unescape(run) instead of its chars. */
static int unescaped_run(State *st, Py_ssize_t a, Py_ssize_t r)
{
    PyObject *sub = PyUnicode_Substring(st->src, a, r);
    if (!sub)
        return -1;
    PyObject *u = PyObject_CallOneArg(g_unescape, sub);
    Py_DECREF(sub);
    if (!u)
        return -1;
    if (!PyUnicode_Check(u)) {
        Py_DECREF(u);
        PyErr_SetString(PyExc_TypeError, "unescape must return str");
        return -1;
    }
    Py_ssize_t m = PyUnicode_GET_LENGTH(u);
    if (buf_reserve(st, m + 1) < 0) {
        Py_DECREF(u);
        return -1;
    }
    int k = PyUnicode_KIND(u);
    const void *ud = PyUnicode_DATA(u);
    for (Py_ssize_t i = 0; i < m; i++)
        put_char(st, PyUnicode_READ(k, ud, i));
    Py_DECREF(u);
    return 0;
}

/* ------------------------------------------------------------ tokenizer */

enum { C_TEXT = 0, C_SPACE, C_STOP }; /* C_STOP: '<' and '&' */
static unsigned char g_class[256];

/* put_char over d[i..lim) up to the first '<' or '&', with the state in
 * locals: -> the index reached. */
static inline __attribute__((always_inline)) Py_ssize_t
copy_text(State *st, const void *d, const int kind, Py_ssize_t i, Py_ssize_t lim)
{
    Py_UCS4 *buf = st->buf, bits = st->cur_bits;
    Py_ssize_t len = st->len;
    const Py_ssize_t cur = st->cur;
    int pending = st->pending_space;
    for (; i < lim; i++) {
        Py_UCS4 c = rd(d, kind, i);
        int cls = c < 256 ? g_class[c] : is_space(c) ? C_SPACE : C_TEXT;
        if (cls == C_TEXT) {
            buf[len] = ' ';
            len += pending;
            pending = 0;
            buf[len++] = c;
            bits |= c;
        }
        else if (cls == C_SPACE)
            pending = len > cur;
        else
            break;
    }
    st->len = len;
    st->cur_bits = bits;
    st->pending_space = pending;
    return i;
}

/* One text run starting at i (the data before the next '<'): -> the index
 * of that '<' (or n), or -1 on error, TIMED_OUT past the deadline. */
static inline __attribute__((always_inline)) Py_ssize_t
text_run(State *st, const void *d, const int kind, Py_ssize_t i)
{
    const Py_ssize_t n = st->n;
    if (st->skip)
        return find_char(st, d, kind, i, '<');
    const Py_ssize_t a = i, len0 = st->len;
    const Py_UCS4 bits0 = st->cur_bits;
    const int pending0 = st->pending_space;
    for (;;) {
        Py_ssize_t lim = n - i > COPY_CHUNK ? i + COPY_CHUNK : n;
        if (lim > st->next_check)
            lim = st->next_check;
        /* at most one char per input char, plus one separator */
        if (buf_reserve(st, lim - i + 1) < 0)
            return -1;
        i = copy_text(st, d, kind, i, lim);
        if (i < lim || i >= n)
            break;
        if (i >= st->next_check && poll_deadline(st, i) == TIMED_OUT)
            return TIMED_OUT;
    }
    if (i < n && rd(d, kind, i) == '&') {
        Py_ssize_t r = find_char(st, d, kind, i, '<');
        if (r == TIMED_OUT)
            return TIMED_OUT;
        st->len = len0;
        st->cur_bits = bits0;
        st->pending_space = pending0;
        if (unescaped_run(st, a, r) < 0)
            return -1;
        i = r;
    }
    end_run(st, len0);
    return i;
}

/* The raw-text content after a start tag ends before the first
 * case-insensitive "</name", or at the end of input. */
static inline __attribute__((always_inline)) Py_ssize_t
raw_close(State *st, const void *d, const int kind, Py_ssize_t i, int raw)
{
    const Py_ssize_t n = st->n;
    const char *name = g_raw[raw];
    const Py_ssize_t len = g_raw_len[raw];
    for (;;) {
        i = find_char(st, d, kind, i, '<');
        if (i < 0 || i >= n)
            return i;
        if (i + 2 + len <= n && rd(d, kind, i + 1) == '/') {
            Py_ssize_t k = 0;
            while (k < len && ci_letter(rd(d, kind, i + 2 + k), name[k]))
                k++;
            if (k == len)
                return i;
        }
        i++;
    }
}

/* A comment body starting at b (just past "<!--") ends after the first
 * "-->" that starts at b or later; the caller passes i = b + 2, the first
 * index its '>' can have.  -> the index past it, n, or TIMED_OUT. */
static inline __attribute__((always_inline)) Py_ssize_t
comment_end(State *st, const void *d, const int kind, Py_ssize_t i)
{
    const Py_ssize_t n = st->n;
    for (;;) {
        i = find_char(st, d, kind, i, '>');
        if (i < 0 || i >= n)
            return i;
        if (rd(d, kind, i - 1) == '-' && rd(d, kind, i - 2) == '-')
            return i + 1;
        i++;
    }
}

/* One token at the '<' at i: -> the index after it, -1 on error,
 * TIMED_OUT past the deadline.  The alternatives are tried in the order
 * of `_TOKEN_RE`. */
static inline __attribute__((always_inline)) Py_ssize_t
tag_token(State *st, const void *d, const int kind, Py_ssize_t i)
{
    const Py_ssize_t n = st->n;
    Py_ssize_t j = i + 1, k, e, g;
    if (j >= n)
        goto bare;
    Py_UCS4 c = rd(d, kind, j);

    /* raw-text start tag: \s* then a raw name (any ASCII case) not
     * followed by a name char, then up to a '>' not preceded by '/' */
    k = j;
    while (k < n && is_space(rd(d, kind, k)))
        k++;
    if (k < n && is_alpha(rd(d, kind, k))) {
        e = k;
        while (e < n && is_alpha(rd(d, kind, e)))
            e++;
        if (e == n || !is_name(rd(d, kind, e))) {
            for (int r = 0; r < g_n_raw; r++) {
                if (e - k != g_raw_len[r])
                    continue;
                Py_ssize_t m = 0;
                while (m < e - k && (char)(rd(d, kind, k + m) | 0x20) == g_raw[r][m])
                    m++;
                if (m < e - k)
                    continue;
                g = find_char(st, d, kind, e, '>');
                if (g < 0 || g >= n)
                    return g; /* no '>': the rest of the input is one token */
                if (rd(d, kind, g - 1) == '/')
                    break; /* self-closing: an ordinary tag below */
                const TagInfo *t = lookup_tag(d, kind, k, e);
                if (t && apply_tag(st, t, 0, 0) < 0)
                    return -1;
                return raw_close(st, d, kind, g + 1, r);
            }
        }
    }
    /* comment */
    if (c == '!' && j + 2 < n && rd(d, kind, j + 1) == '-' && rd(d, kind, j + 2) == '-')
        return comment_end(st, d, kind, j + 5);
    /* declaration / processing instruction: up to '>' or the end */
    if (c == '!' || c == '?') {
        g = find_char(st, d, kind, j + 1, '>');
        return g < 0 || g >= n ? g : g + 1;
    }
    /* tag: (/?)\s*name then up to '>'; with no '>' the rest is one token */
    k = j;
    int end_tag = c == '/';
    k += end_tag;
    while (k < n && is_space(rd(d, kind, k)))
        k++;
    if (k < n && is_alpha(rd(d, kind, k))) {
        e = k + 1;
        while (e < n && is_name(rd(d, kind, e)))
            e++;
        g = find_char(st, d, kind, e, '>');
        if (g < 0 || g >= n)
            return g;
        const TagInfo *t = lookup_tag(d, kind, k, e);
        if (t && apply_tag(st, t, end_tag, g > e && rd(d, kind, g - 1) == '/') < 0)
            return -1;
        return g + 1;
    }
bare:
    /* a '<' that starts no token is a "<" data call of its own */
    if (!st->skip) {
        Py_ssize_t len0 = st->len;
        if (buf_reserve(st, 2) < 0)
            return -1;
        put_char(st, '<');
        end_run(st, len0);
    }
    return j;
}

static inline __attribute__((always_inline)) int scan(State *st, const void *d, const int kind)
{
    const Py_ssize_t n = st->n;
    Py_ssize_t i = 0;
    while (i < n) {
        if (i >= st->next_check && poll_deadline(st, i) == TIMED_OUT)
            return TIMED_OUT;
        if (rd(d, kind, i) != '<')
            i = text_run(st, d, kind, i);
        else
            i = tag_token(st, d, kind, i);
        if (i < 0)
            return (int)i;
    }
    return flush(st); /* the end of input closes the open block */
}

/* ----------------------------------------------- classify and assemble */

static void classify(State *st, double max_ld, double min_par)
{
    Block *b = st->blocks;
    Py_ssize_t nb = st->n_blocks;
    /* pass 1: content blocks */
    for (Py_ssize_t i = 0; i < nb; i++) {
        if (b[i].kind == K_HEADING)
            continue;
        double ld = (double)b[i].anchor / (double)b[i].len;
        if (b[i].boiler || ld > max_ld)
            b[i].good = 0;
        else if (b[i].kind == K_PARAGRAPH && (double)b[i].len < min_par)
            b[i].good = 0;
        else if ((b[i].kind == K_LIST_ITEM || b[i].kind == K_TABLE) && b[i].len < 3)
            b[i].good = 0;
        else
            b[i].good = 1;
    }
    /* pass 2, backwards: a heading is good iff good content follows it
     * before the next heading */
    int good_after = 0;
    for (Py_ssize_t i = nb - 1; i >= 0; i--) {
        if (b[i].kind != K_HEADING) {
            good_after |= b[i].good;
            continue;
        }
        double ld = (double)b[i].anchor / (double)b[i].len;
        b[i].good = !(b[i].boiler || ld > max_ld) && good_after;
        good_after = 0;
    }
}

static char *put_int(char *p, Py_ssize_t v)
{
    char tmp[24];
    int k = 0;
    do {
        tmp[k++] = (char)('0' + v % 10);
        v /= 10;
    } while (v);
    while (k)
        *p++ = tmp[--k];
    return p;
}

static char *put_str(char *p, const char *s, Py_ssize_t n)
{
    memcpy(p, s, (size_t)n);
    return p + n;
}

#define PUT_FRAG(p, k) put_str((p), g_frag[k], g_frag_len[k])

static PyObject *assemble(State *st)
{
    /* the fragments, plus at most 20 digits per number */
    Py_ssize_t kept = 0, out_len = 0, json_cap = g_doc_frags_len + 3 * 20;
    Py_UCS4 bits = 0;
    for (Py_ssize_t i = 0; i < st->n_blocks; i++) {
        Block *b = &st->blocks[i];
        if (!b->good)
            continue;
        out_len += (kept ? 2 : 0) + b->len;
        bits |= b->maxbits;
        json_cap += 1 + g_span_frags_len + 2 * 20 + g_kind_len[b->kind];
        kept++;
    }
    if (bits > 0x10ffff)
        bits = 0x10ffff;
    PyObject *text = PyUnicode_New(out_len, bits);
    PyObject *spans = PyList_New(kept);
    char *json = PyMem_Malloc((size_t)json_cap);
    PyObject *doc_json = NULL, *result = NULL;
    if (!text || !spans || !json) {
        if (!json)
            PyErr_NoMemory();
        goto done;
    }
    int tk = PyUnicode_KIND(text);
    void *td = PyUnicode_DATA(text);
    char *p = json;
    p = PUT_FRAG(p, DOC_FRAG(0));
    p = put_int(p, kept);
    p = PUT_FRAG(p, DOC_FRAG(1));
    p = put_int(p, st->n_blocks);
    p = PUT_FRAG(p, DOC_FRAG(2));
    p = put_int(p, out_len);
    p = PUT_FRAG(p, DOC_FRAG(3));
    Py_ssize_t off = 0, s = 0;
    for (Py_ssize_t i = 0; i < st->n_blocks; i++) {
        Block *b = &st->blocks[i];
        if (!b->good)
            continue;
        if (s) {
            PyUnicode_WRITE(tk, td, off, '\n');
            PyUnicode_WRITE(tk, td, off + 1, '\n');
            off += 2;
            *p++ = ',';
        }
        const Py_UCS4 *src = st->buf + b->start;
        switch (tk) {
        case PyUnicode_1BYTE_KIND:
            for (Py_ssize_t k = 0; k < b->len; k++)
                ((Py_UCS1 *)td)[off + k] = (Py_UCS1)src[k];
            break;
        case PyUnicode_2BYTE_KIND:
            for (Py_ssize_t k = 0; k < b->len; k++)
                ((Py_UCS2 *)td)[off + k] = (Py_UCS2)src[k];
            break;
        default:
            memcpy((Py_UCS4 *)td + off, src, (size_t)b->len * sizeof(Py_UCS4));
        }
        PyObject *span = PyDict_New();
        PyObject *v_start = PyLong_FromSsize_t(off);
        PyObject *v_end = PyLong_FromSsize_t(off + b->len);
        int bad = !span || !v_start || !v_end ||
                  PyDict_SetItem(span, g_key_start, v_start) < 0 ||
                  PyDict_SetItem(span, g_key_end, v_end) < 0 ||
                  PyDict_SetItem(span, g_key_kind, g_kind_obj[b->kind]) < 0;
        Py_XDECREF(v_start);
        Py_XDECREF(v_end);
        if (bad) {
            Py_XDECREF(span);
            goto done;
        }
        PyList_SET_ITEM(spans, s, span);
        p = PUT_FRAG(p, SPAN_FRAG(0));
        p = put_int(p, off + b->len);
        p = PUT_FRAG(p, SPAN_FRAG(1));
        p = put_str(p, g_kind_str[b->kind], g_kind_len[b->kind]);
        p = PUT_FRAG(p, SPAN_FRAG(2));
        p = put_int(p, off);
        p = PUT_FRAG(p, SPAN_FRAG(3));
        off += b->len;
        s++;
    }
    p = PUT_FRAG(p, DOC_FRAG(4));
    doc_json = PyUnicode_New(p - json, 127);
    if (!doc_json)
        goto done;
    memcpy(PyUnicode_1BYTE_DATA(doc_json), json, (size_t)(p - json));
    result = Py_BuildValue("(OOOnn)", text, spans, doc_json, st->n_blocks, kept);
done:
    Py_XDECREF(text);
    Py_XDECREF(spans);
    Py_XDECREF(doc_json);
    PyMem_Free(json);
    return result;
}

/* ------------------------------------------------------------ module */

static PyObject *extract(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    if (!g_tags) {
        PyErr_SetString(PyExc_RuntimeError, "setup() has not been called");
        return NULL;
    }
    if (nargs != 4 || !PyUnicode_Check(args[0])) {
        PyErr_SetString(PyExc_TypeError, "extract(str, float, int, deadline or None)");
        return NULL;
    }
    double max_ld = PyFloat_AsDouble(args[1]);
    if (max_ld == -1.0 && PyErr_Occurred())
        return NULL;
    double min_par = PyFloat_AsDouble(args[2]);
    if (min_par == -1.0 && PyErr_Occurred())
        return NULL;
#if PY_VERSION_HEX < 0x030C0000
    if (PyUnicode_READY(args[0]) < 0)
        return NULL;
#endif
    State st;
    memset(&st, 0, sizeof st);
    st.src = args[0];
    st.n = PyUnicode_GET_LENGTH(args[0]);
    if (args[3] != Py_None) {
        st.deadline = PyFloat_AsDouble(args[3]);
        if (st.deadline == -1.0 && PyErr_Occurred())
            return NULL;
        st.has_deadline = 1;
    }
    st.next_check = st.has_deadline ? 0 : PY_SSIZE_T_MAX;

    const void *d = PyUnicode_DATA(args[0]);
    int rc;
    switch (PyUnicode_KIND(args[0])) {
    case PyUnicode_1BYTE_KIND:
        rc = scan(&st, d, PyUnicode_1BYTE_KIND);
        break;
    case PyUnicode_2BYTE_KIND:
        rc = scan(&st, d, PyUnicode_2BYTE_KIND);
        break;
    default:
        rc = scan(&st, d, PyUnicode_4BYTE_KIND);
    }
    PyObject *result = NULL;
    if (rc == TIMED_OUT)
        result = Py_NewRef(Py_None);
    else if (rc == 0) {
        classify(&st, max_ld, min_par);
        result = assemble(&st);
    }
    PyMem_Free(st.buf);
    PyMem_Free(st.blocks);
    PyMem_Free(st.kinds);
    return result;
}

static int kind_index(PyObject *kind, PyObject *const *kinds)
{
    if (kind == Py_None)
        return K_NONE;
    for (int k = 1; k < N_KINDS; k++) {
        int eq = PyObject_RichCompareBool(kind, kinds[k], Py_EQ);
        if (eq)
            return eq < 0 ? -1 : k;
    }
    PyErr_SetString(PyExc_ValueError, "unknown block kind in the tag table");
    return -1;
}

/* A lower-case ASCII name of at most MAX_TAG_LEN chars -> its UTF-8, or
 * NULL with an exception. */
static const char *ascii_name(PyObject *s, Py_ssize_t *len)
{
    const char *u = PyUnicode_Check(s) ? PyUnicode_AsUTF8AndSize(s, len) : NULL;
    if (!u || *len < 1 || *len > MAX_TAG_LEN || u[0] < 'a' || u[0] > 'z') {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, "tag names must be lower-case ASCII of 1-16 chars");
        return NULL;
    }
    for (Py_ssize_t k = 0; k < *len; k++)
        if (!is_name((unsigned char)u[k]) || (is_alpha((unsigned char)u[k]) && u[k] < 'a')) {
            PyErr_SetString(PyExc_ValueError, "tag names must be lower-case ASCII of 1-16 chars");
            return NULL;
        }
    return u;
}

/* setup(tag_flags, rawtext_tags, paragraph, heading, list_item, table,
 * unescape, doc_frags, span_frags): tag_flags maps a lower-case tag name to
 * html.py's (is_block, is_void, is_skip, is_boiler, kind, is_anchor,
 * is_table); doc_frags and span_frags are the ASCII text around the
 * placeholders of _DOC_JSON_FMT and _SPAN_JSON_FMT. */
static PyObject *setup(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *flags, *raw, *kinds[N_KINDS] = {NULL}, *unescape, *doc_frags, *span_frags;
    if (!PyArg_ParseTuple(args, "O!O!UUUUOO!O!:setup", &PyDict_Type, &flags, &PyTuple_Type, &raw,
                          &kinds[K_PARAGRAPH], &kinds[K_HEADING], &kinds[K_LIST_ITEM],
                          &kinds[K_TABLE], &unescape, &PyTuple_Type, &doc_frags,
                          &PyTuple_Type, &span_frags))
        return NULL;
    if (PyTuple_GET_SIZE(raw) > N_RAW_MAX) {
        PyErr_SetString(PyExc_ValueError, "too many raw-text tags");
        return NULL;
    }
    if (PyTuple_GET_SIZE(doc_frags) != N_DOC_FRAGS || PyTuple_GET_SIZE(span_frags) != N_SPAN_FRAGS) {
        PyErr_SetString(PyExc_ValueError, "doc_json formats need 4 and 3 placeholders");
        return NULL;
    }
    for (int k = 0; k < N_DOC_FRAGS + N_SPAN_FRAGS; k++) {
        PyObject *f = k < N_DOC_FRAGS ? PyTuple_GET_ITEM(doc_frags, k)
                                      : PyTuple_GET_ITEM(span_frags, k - N_DOC_FRAGS);
        if (!PyUnicode_Check(f) || !PyUnicode_IS_ASCII(f)) {
            PyErr_SetString(PyExc_ValueError, "doc_json format text must be ASCII str");
            return NULL;
        }
    }
    Py_ssize_t n = PyDict_GET_SIZE(flags);
    TagInfo *tags = PyMem_Calloc((size_t)n + 1, sizeof(TagInfo));
    if (!tags)
        return PyErr_NoMemory();
    /* counting sort of the entries by first letter */
    int count[27] = {0};
    Py_ssize_t pos = 0, len;
    PyObject *key, *val;
    while (PyDict_Next(flags, &pos, &key, &val)) {
        const char *u = ascii_name(key, &len);
        if (!u)
            goto fail;
        count[u[0] - 'a' + 1]++;
    }
    int start[27];
    start[0] = 0;
    for (int b = 1; b < 27; b++)
        start[b] = start[b - 1] + count[b];
    int fill[26];
    memcpy(fill, start, sizeof fill);
    pos = 0;
    while (PyDict_Next(flags, &pos, &key, &val)) {
        const char *u = ascii_name(key, &len);
        if (!PyTuple_Check(val) || PyTuple_GET_SIZE(val) != 7) {
            PyErr_SetString(PyExc_ValueError, "tag flags must be 7-tuples");
            goto fail;
        }
        static const int bit[7] = {F_BLOCK, F_VOID, F_SKIP, F_BOILER, 0, F_ANCHOR, F_TABLE};
        TagInfo *t = &tags[fill[u[0] - 'a']++];
        memcpy(t->name, u, (size_t)len);
        t->len = (unsigned char)len;
        for (int f = 0; f < 7; f++) {
            if (f == 4)
                continue;
            int truth = PyObject_IsTrue(PyTuple_GET_ITEM(val, f));
            if (truth < 0)
                goto fail;
            t->flags |= truth ? bit[f] : 0;
        }
        int ki = kind_index(PyTuple_GET_ITEM(val, 4), kinds);
        if (ki < 0)
            goto fail;
        t->kind = (unsigned char)ki;
    }
    for (Py_ssize_t r = 0; r < PyTuple_GET_SIZE(raw); r++) {
        const char *u = ascii_name(PyTuple_GET_ITEM(raw, r), &len);
        if (!u)
            goto fail;
        for (Py_ssize_t k = 0; k < len; k++)
            if (!is_alpha((unsigned char)u[k])) {
                PyErr_SetString(PyExc_ValueError, "raw-text tag names must be letters");
                goto fail;
            }
        memcpy(g_raw[r], u, (size_t)len);
        g_raw_len[r] = (int)len;
    }
    for (int k = 1; k < N_KINDS; k++) {
        const char *u = PyUnicode_AsUTF8AndSize(kinds[k], &len);
        if (!u)
            goto fail;
        if (!PyUnicode_IS_ASCII(kinds[k])) {
            PyErr_SetString(PyExc_ValueError, "block kinds must be ASCII");
            goto fail;
        }
        Py_XSETREF(g_kind_obj[k], Py_NewRef(kinds[k]));
        g_kind_str[k] = u;
        g_kind_len[k] = len;
    }
    g_doc_frags_len = g_span_frags_len = 0;
    for (int k = 0; k < N_DOC_FRAGS + N_SPAN_FRAGS; k++) {
        PyObject *f = k < N_DOC_FRAGS ? PyTuple_GET_ITEM(doc_frags, k)
                                      : PyTuple_GET_ITEM(span_frags, k - N_DOC_FRAGS);
        Py_XSETREF(g_frag_obj[k], Py_NewRef(f));
        g_frag[k] = PyUnicode_AsUTF8AndSize(f, &g_frag_len[k]);
        *(k < N_DOC_FRAGS ? &g_doc_frags_len : &g_span_frags_len) += g_frag_len[k];
    }
    g_n_raw = (int)PyTuple_GET_SIZE(raw);
    memcpy(g_bucket_start, start, sizeof g_bucket_start);
    PyMem_Free(g_tags);
    g_tags = tags;
    Py_XSETREF(g_unescape, Py_NewRef(unescape));
    Py_RETURN_NONE;
fail:
    PyMem_Free(tags);
    return NULL;
}

static PyMethodDef methods[] = {
    {"extract", (PyCFunction)(void (*)(void))extract, METH_FASTCALL,
     "extract(text, max_link_density, min_paragraph_chars, deadline) -> "
     "(text, spans, doc_json, n_blocks_total, n_blocks_kept), or None past the deadline"},
    {"setup", setup, METH_VARARGS,
     "setup(tag_flags, rawtext_tags, paragraph, heading, list_item, table, unescape, "
     "doc_frags, span_frags)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_htmlkernel",
    .m_doc = "One-pass HTML extraction kernel.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__htmlkernel(void)
{
    for (Py_UCS4 c = 0; c < 256; c++)
        g_class[c] = c == '<' || c == '&' ? C_STOP : is_space(c) ? C_SPACE : C_TEXT;
    g_key_start = PyUnicode_InternFromString("start");
    g_key_end = PyUnicode_InternFromString("end");
    g_key_kind = PyUnicode_InternFromString("kind");
    if (!g_key_start || !g_key_end || !g_key_kind)
        return NULL;
    return PyModule_Create(&module);
}
