/*
 * Sequitur on an array-backed symbol arena: the C twin of FastSequitur.
 *
 * A statement-for-statement transliteration of repro.grammar._kernel's
 * FastSequitur (see that module's docstring for the algorithm and the arena
 * encoding), compiled on first use by repro.grammar._compiled and driven
 * through ctypes. The frozen grammar depends on the exact order of
 * digram-table updates, so check/match/join below keep the Python
 * kernel's order; the kernel property and differential suites pin the
 * equivalence.
 *
 * Arena: slot i is a symbol, nxt[i]/prv[i] its neighbours (-1 unlinked),
 * val[i] its encoding:
 *   val >= 0, even  terminal with token id val >> 1
 *   val >= 1, odd   non-terminal of the rule with serial (val - 1) >> 1
 *   val < 0         guard of the rule with serial -val - 1
 * Token ids are below 2^30 (the caller checks), so every value fits in
 * 32 bits. Slots are never recycled: a stale digram-table entry can never
 * be mistaken for a live occurrence.
 *
 * Digram table: open addressing with linear probing over packed
 * (left << 32 | right) keys, backward-shift deletion (no tombstones), grown
 * at half load. Only digrams of two non-guard symbols are ever looked up,
 * so only those are stored.
 *
 * Errors: an allocation failure inside a feed longjmps back to the entry
 * point, which returns -1 (the wrapper raises MemoryError); the builder is
 * then marked failed, since the cascade it interrupted left the grammar
 * half-rewritten.
 */

#include <setjmp.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define EMPTY_KEY UINT64_MAX
#define KEY(left, right) (((uint64_t)(uint32_t)(left) << 32) | (uint32_t)(right))
#define MAX_SLOTS ((int64_t)INT32_MAX)

typedef struct {
    uint64_t key;
    int32_t slot;
} Entry;

typedef struct {
    int32_t *nxt, *prv, *val;
    int64_t n_slots, cap_slots;
    int32_t *rule_guard, *rule_count;
    int64_t n_rules, cap_rules;
    Entry *table;
    int64_t table_cap, table_used;
    int table_shift;
    int64_t fed;
    /* Result of the last seq_spans / seq_freeze, until seq_take. */
    int64_t *out;
    int64_t out_len;
    int failed;
    jmp_buf on_oom;
} Seq;

/* ---------------------------------------------------------------------- */
/* Storage.                                                               */
/* ---------------------------------------------------------------------- */

static void *grow(Seq *s, void *buffer, int64_t count, size_t size) {
    void *grown = realloc(buffer, (size_t)count * size);
    if (grown == NULL) {
        longjmp(s->on_oom, 1);
    }
    return grown;
}

static void grow_slots(Seq *s) {
    int64_t cap = 2 * s->cap_slots;
    if (cap > MAX_SLOTS) {
        if (s->n_slots >= MAX_SLOTS) {
            longjmp(s->on_oom, 1);
        }
        cap = MAX_SLOTS;
    }
    s->nxt = grow(s, s->nxt, cap, sizeof(int32_t));
    s->prv = grow(s, s->prv, cap, sizeof(int32_t));
    s->val = grow(s, s->val, cap, sizeof(int32_t));
    s->cap_slots = cap;
}

static int32_t new_slot(Seq *s, int32_t value) {
    if (s->n_slots == s->cap_slots) {
        grow_slots(s);
    }
    int32_t slot = (int32_t)s->n_slots++;
    s->val[slot] = value;
    s->nxt[slot] = -1;
    s->prv[slot] = -1;
    return slot;
}

/* A new rule serial with its guard slot (links left to the caller). */
static int32_t new_rule(Seq *s) {
    if (s->n_rules == s->cap_rules) {
        int64_t cap = 2 * s->cap_rules;
        s->rule_guard = grow(s, s->rule_guard, cap, sizeof(int32_t));
        s->rule_count = grow(s, s->rule_count, cap, sizeof(int32_t));
        s->cap_rules = cap;
    }
    int32_t serial = (int32_t)s->n_rules;
    int32_t guard = new_slot(s, -serial - 1);
    s->rule_guard[serial] = guard;
    s->rule_count[serial] = 0;
    s->n_rules++;
    return serial;
}

/* ---------------------------------------------------------------------- */
/* Digram table.                                                          */
/* ---------------------------------------------------------------------- */

static inline uint64_t home(const Seq *s, uint64_t key) {
    return (key * 0x9E3779B97F4A7C15ull) >> s->table_shift;
}

static void table_grow(Seq *s) {
    Entry *old = s->table;
    int64_t old_cap = s->table_cap;
    Entry *table = malloc((size_t)(2 * old_cap) * sizeof(Entry));
    if (table == NULL) {
        longjmp(s->on_oom, 1);
    }
    for (int64_t i = 0; i < 2 * old_cap; i++) {
        table[i].key = EMPTY_KEY;
    }
    s->table = table;
    s->table_cap = 2 * old_cap;
    s->table_shift -= 1;
    uint64_t mask = (uint64_t)s->table_cap - 1;
    for (int64_t i = 0; i < old_cap; i++) {
        if (old[i].key != EMPTY_KEY) {
            uint64_t at = home(s, old[i].key);
            while (table[at].key != EMPTY_KEY) {
                at = (at + 1) & mask;
            }
            table[at] = old[i];
        }
    }
    free(old);
}

/* The slot registered under key; when absent, register slot and return -1. */
static int32_t table_get_or_put(Seq *s, uint64_t key, int32_t slot) {
    if (2 * (s->table_used + 1) > s->table_cap) {
        table_grow(s);
    }
    uint64_t mask = (uint64_t)s->table_cap - 1;
    for (uint64_t at = home(s, key);; at = (at + 1) & mask) {
        Entry *entry = &s->table[at];
        if (entry->key == key) {
            return entry->slot;
        }
        if (entry->key == EMPTY_KEY) {
            entry->key = key;
            entry->slot = slot;
            s->table_used++;
            return -1;
        }
    }
}

static void table_put(Seq *s, uint64_t key, int32_t slot) {
    if (2 * (s->table_used + 1) > s->table_cap) {
        table_grow(s);
    }
    uint64_t mask = (uint64_t)s->table_cap - 1;
    for (uint64_t at = home(s, key);; at = (at + 1) & mask) {
        Entry *entry = &s->table[at];
        if (entry->key == key || entry->key == EMPTY_KEY) {
            s->table_used += entry->key == EMPTY_KEY;
            entry->key = key;
            entry->slot = slot;
            return;
        }
    }
}

/* Delete key only if slot owns it (the Python kernel's
 * ``if digrams.get(key, -1) == slot: del digrams[key]``). */
static void table_delete_if(Seq *s, uint64_t key, int32_t slot) {
    uint64_t mask = (uint64_t)s->table_cap - 1;
    uint64_t hole = home(s, key);
    for (;; hole = (hole + 1) & mask) {
        if (s->table[hole].key == key) {
            break;
        }
        if (s->table[hole].key == EMPTY_KEY) {
            return;
        }
    }
    if (s->table[hole].slot != slot) {
        return;
    }
    /* Backward-shift: pull later entries of the probe run into the hole
     * unless their home lies cyclically in (hole, at]. */
    for (uint64_t at = (hole + 1) & mask; s->table[at].key != EMPTY_KEY; at = (at + 1) & mask) {
        uint64_t want = home(s, s->table[at].key);
        int stays = hole <= at ? (hole < want && want <= at) : (hole < want || want <= at);
        if (!stays) {
            s->table[hole] = s->table[at];
            hole = at;
        }
    }
    s->table[hole].key = EMPTY_KEY;
    s->table_used--;
}

/* ---------------------------------------------------------------------- */
/* Core Sequitur steps (FastSequitur._join/_check/_match).                */
/* ---------------------------------------------------------------------- */

static void join(Seq *s, int32_t left, int32_t right) {
    int32_t *nxt = s->nxt, *prv = s->prv, *val = s->val;
    if (nxt[left] != -1) {
        int32_t lv = val[left];
        int32_t la = nxt[left];
        if (lv >= 0 && la != -1 && val[la] >= 0) {
            table_delete_if(s, KEY(lv, val[la]), left);
        }
        /* Triple-repetition fix: inside a run of identical symbols the
         * overlapping digram that becomes primary is (re-)registered. */
        int32_t rp = prv[right], rn = nxt[right];
        int32_t rv = val[right];
        if (rp != -1 && rn != -1 && rv >= 0 && val[rp] == rv && val[rn] == rv) {
            table_put(s, KEY(rv, rv), right);
        }
        int32_t lp = prv[left], ln = nxt[left];
        lv = val[left];
        if (lp != -1 && ln != -1 && lv >= 0 && val[ln] == lv && val[lp] == lv) {
            table_put(s, KEY(lv, lv), lp);
        }
    }
    nxt[left] = right;
    prv[right] = left;
}

static void match(Seq *s, int32_t new_site, int32_t found);

static int check(Seq *s, int32_t symbol) {
    int32_t after = s->nxt[symbol];
    int32_t value = s->val[symbol];
    if (value < 0 || after == -1 || s->val[after] < 0) {
        return 0;
    }
    int32_t found = table_get_or_put(s, KEY(value, s->val[after]), symbol);
    if (found == -1) {
        return 0;
    }
    if (s->nxt[found] != symbol) {
        match(s, symbol, found);
    }
    return 1;
}

/* The arena arrays may move whenever a slot or rule is allocated (here or
 * in a nested check), so match reads them through s every time. */
#define NXT(i) s->nxt[i]
#define PRV(i) s->prv[i]
#define VAL(i) s->val[i]

static void match(Seq *s, int32_t new_site, int32_t found) {
    int32_t serial, site, other_site, first;
    int32_t match_prev = PRV(found);
    if (VAL(match_prev) < 0 && VAL(NXT(NXT(found))) < 0) {
        /* The match is the entire body of an existing rule: reuse it. */
        serial = -VAL(match_prev) - 1;
        site = new_site;
        other_site = -1;
        first = -1;
    } else {
        /* New rule from clones of the digram. */
        serial = new_rule(s);
        int32_t guard = s->rule_guard[serial];
        int32_t v1 = VAL(new_site);
        int32_t v2 = VAL(NXT(new_site));
        first = new_slot(s, v1);
        int32_t second = new_slot(s, v2);
        if (v1 & 1) {
            s->rule_count[(v1 - 1) >> 1] += 1;
        }
        if (v2 & 1) {
            s->rule_count[(v2 - 1) >> 1] += 1;
        }
        NXT(guard) = first;
        PRV(first) = guard;
        NXT(first) = second;
        PRV(second) = first;
        NXT(second) = guard;
        PRV(guard) = second;
        site = found;
        other_site = new_site;
    }
    while (site != -1) {
        /* ---- substitute(site, serial) ------------------------------- */
        int32_t anchor = PRV(site);
        int32_t victim = site;
        int32_t second_victim = NXT(site);
        /* cleanup(victim) for victim in (site, site.next) */
        for (;;) {
            int32_t v = VAL(victim);
            if (v >= 0) {
                join(s, PRV(victim), NXT(victim));
                /* delete_digram(victim): reads victim's (stale) next */
                int32_t va = NXT(victim);
                if (va != -1 && VAL(va) >= 0) {
                    table_delete_if(s, KEY(v, VAL(va)), victim);
                }
                if (v & 1) {
                    s->rule_count[(v - 1) >> 1] -= 1;
                }
            }
            if (victim == second_victim) {
                break;
            }
            victim = second_victim;
        }
        /* insert_after(anchor, NonTerminal(serial)) */
        int32_t nonterminal = new_slot(s, (serial << 1) | 1);
        s->rule_count[serial] += 1;
        int32_t after_anchor = NXT(anchor);
        /* join(nonterminal, anchor.next): fresh symbol, plain links. */
        NXT(nonterminal) = after_anchor;
        PRV(after_anchor) = nonterminal;
        /* join(anchor, nonterminal): only anchor's own stale digram needs
         * deleting; the triple fix cannot fire here. */
        int32_t av = VAL(anchor);
        if (av >= 0 && VAL(after_anchor) >= 0) {
            table_delete_if(s, KEY(av, VAL(after_anchor)), anchor);
        }
        NXT(anchor) = nonterminal;
        PRV(nonterminal) = anchor;
        if (!check(s, anchor)) {
            check(s, NXT(anchor));
        }
        site = other_site;
        other_site = -1;
    }
    if (first != -1 && VAL(NXT(first)) >= 0) {
        table_put(s, KEY(VAL(first), VAL(NXT(first))), first);
    }
    /* Rule utility: the replacement may have dropped another rule's
     * reference count to one, in which case it is inlined (expand). */
    int32_t first_of_rule = NXT(s->rule_guard[serial]);
    int32_t head = VAL(first_of_rule);
    if (head > 0 && (head & 1) && s->rule_count[(head - 1) >> 1] == 1) {
        int32_t inner = (head - 1) >> 1;
        int32_t left = PRV(first_of_rule);
        int32_t right = NXT(first_of_rule);
        int32_t inner_guard = s->rule_guard[inner];
        int32_t inner_first = NXT(inner_guard);
        int32_t inner_last = PRV(inner_guard);
        int32_t fa = NXT(first_of_rule);
        if (fa != -1 && VAL(fa) >= 0) {
            table_delete_if(s, KEY(head, VAL(fa)), first_of_rule);
        }
        join(s, left, inner_first);
        join(s, inner_last, right);
        if (VAL(inner_last) >= 0 && VAL(NXT(inner_last)) >= 0) {
            table_put(s, KEY(VAL(inner_last), VAL(NXT(inner_last))), inner_last);
        }
        s->rule_count[inner] = 0;
        NXT(inner_guard) = inner_guard;
        PRV(inner_guard) = inner_guard;
    }
}

/* FastSequitur.feed: append one terminal to R0 and restore the invariants. */
static void feed_one(Seq *s, int64_t token_id) {
    int32_t encoded = (int32_t)(token_id << 1);
    int32_t terminal = new_slot(s, encoded);
    int32_t guard = s->rule_guard[0];
    int32_t last = PRV(guard);
    NXT(terminal) = guard;
    PRV(guard) = terminal;
    NXT(last) = terminal;
    PRV(terminal) = last;
    s->fed++;
    int32_t last_value = VAL(last);
    if (last_value < 0) {
        return;
    }
    int32_t found = table_get_or_put(s, KEY(last_value, encoded), last);
    if (found != -1 && NXT(found) != last) {
        match(s, last, found);
    }
}

/* ---------------------------------------------------------------------- */
/* Exported API (see repro.grammar._compiled for the ctypes signatures).  */
/* ---------------------------------------------------------------------- */

void seq_free(Seq *s) {
    if (s == NULL) {
        return;
    }
    free(s->nxt);
    free(s->prv);
    free(s->val);
    free(s->rule_guard);
    free(s->rule_count);
    free(s->table);
    free(s->out);
    free(s);
}

Seq *seq_new(void) {
    Seq *s = calloc(1, sizeof(Seq));
    if (s == NULL) {
        return NULL;
    }
    s->cap_slots = 64;
    s->cap_rules = 16;
    s->table_cap = 64;
    s->table_shift = 64 - 6;
    s->nxt = malloc((size_t)s->cap_slots * sizeof(int32_t));
    s->prv = malloc((size_t)s->cap_slots * sizeof(int32_t));
    s->val = malloc((size_t)s->cap_slots * sizeof(int32_t));
    s->rule_guard = malloc((size_t)s->cap_rules * sizeof(int32_t));
    s->rule_count = malloc((size_t)s->cap_rules * sizeof(int32_t));
    s->table = malloc((size_t)s->table_cap * sizeof(Entry));
    if (!s->nxt || !s->prv || !s->val || !s->rule_guard || !s->rule_count || !s->table) {
        seq_free(s);
        return NULL;
    }
    for (int64_t i = 0; i < s->table_cap; i++) {
        s->table[i].key = EMPTY_KEY;
    }
    /* serial 0 = R0; its guard starts self-linked. Cannot overflow the
     * initial capacities, so no longjmp target is needed yet. */
    int32_t guard = new_slot(s, -1);
    s->rule_guard[0] = guard;
    s->rule_count[0] = 0;
    s->n_rules = 1;
    s->nxt[guard] = guard;
    s->prv[guard] = guard;
    return s;
}

/* Feed n token ids (each in [0, 2^30), checked by the caller).
 * Returns 0, or -1 when memory ran out (the builder is then unusable). */
int seq_feed(Seq *s, const int64_t *ids, int64_t n) {
    if (s->failed) {
        return -1;
    }
    if (setjmp(s->on_oom)) {
        s->failed = 1;
        return -1;
    }
    for (int64_t i = 0; i < n; i++) {
        feed_one(s, ids[i]);
    }
    return 0;
}

int seq_feed_one(Seq *s, int64_t token_id) {
    return seq_feed(s, &token_id, 1);
}

/* Bytes the live arena holds: used slots, rules and table entries. */
int64_t seq_memory_bytes(const Seq *s) {
    return s->n_slots * 3 * (int64_t)sizeof(int32_t)
        + s->n_rules * 2 * (int64_t)sizeof(int32_t)
        + s->table_used * (int64_t)sizeof(Entry);
}

static int reserve_out(Seq *s, int64_t count) {
    free(s->out);
    s->out_len = 0;
    s->out = malloc((size_t)(count > 0 ? count : 1) * sizeof(int64_t));
    return s->out == NULL ? -1 : 0;
}

/* Occurrence spans of every rule occurrence except R0 (FastSequitur
 * .occurrence_spans, same in-order walk): leaves ``count`` firsts followed
 * by ``count`` lasts in the output buffer and returns count, or -1 when
 * memory ran out. */
int64_t seq_spans(Seq *s) {
    if (s->failed) {
        return -1;
    }
    int64_t n_rules = s->n_rules;
    int64_t *lengths = malloc((size_t)n_rules * sizeof(int64_t));
    /* Each rule's body is scanned with pending references at most once, so
     * the pushes are bounded by the arena size. */
    int32_t *stack = malloc((size_t)(s->n_slots + 1) * sizeof(int32_t));
    if (lengths == NULL || stack == NULL || reserve_out(s, 2 * s->fed) != 0) {
        free(lengths);
        free(stack);
        return -1;
    }
    const int32_t *nxt = s->nxt, *val = s->val, *rule_guard = s->rule_guard;
    for (int64_t i = 0; i < n_rules; i++) {
        lengths[i] = -1;
    }
    /* Expanded lengths by iterative post-order over live rules. */
    int64_t top = 0;
    stack[top++] = 0;
    while (top > 0) {
        int32_t serial = stack[top - 1];
        if (lengths[serial] >= 0) {
            top--;
            continue;
        }
        int pending = 0;
        for (int32_t symbol = nxt[rule_guard[serial]]; val[symbol] >= 0; symbol = nxt[symbol]) {
            int32_t v = val[symbol];
            if ((v & 1) && lengths[(v - 1) >> 1] < 0) {
                stack[top++] = (v - 1) >> 1;
                pending = 1;
            }
        }
        if (pending) {
            continue;
        }
        int64_t total = 0;
        for (int32_t symbol = nxt[rule_guard[serial]]; val[symbol] >= 0; symbol = nxt[symbol]) {
            int32_t v = val[symbol];
            total += (v & 1) ? lengths[(v - 1) >> 1] : 1;
        }
        lengths[serial] = total;
        top--;
    }
    /* In-order walk of R0's parse tree; the stack holds return symbols. */
    int64_t *firsts = s->out;
    int64_t count = 0;
    int64_t position = 0;
    top = 0;
    int32_t symbol = nxt[rule_guard[0]];
    for (;;) {
        int32_t v = val[symbol];
        if (v < 0) {
            if (top == 0) {
                break;
            }
            symbol = stack[--top];
            continue;
        }
        if (v & 1) {
            int32_t serial = (v - 1) >> 1;
            if (count >= s->fed) {
                /* More occurrences than tokens: a broken arena. */
                free(lengths);
                free(stack);
                return -1;
            }
            firsts[count] = position;
            firsts[s->fed + count] = position + lengths[serial] - 1;
            count++;
            stack[top++] = nxt[symbol];
            symbol = nxt[rule_guard[serial]];
        } else {
            position++;
            symbol = nxt[symbol];
        }
    }
    /* Close the gap between the firsts and lasts halves. */
    memmove(firsts + count, firsts + s->fed, (size_t)count * sizeof(int64_t));
    s->out_len = 2 * count;
    free(lengths);
    free(stack);
    return count;
}

/* The grammar, rules numbered as FastSequitur.freeze numbers them: 1..k in
 * order of first reference in a pre-order walk from R0. Leaves, for R0 then
 * rules 1..k, the body length followed by the body, each symbol encoded as
 * 2 * token_id (terminal) or 2 * rule_number + 1 (non-terminal); returns
 * the output length, or -1 when memory ran out. */
int64_t seq_freeze(Seq *s) {
    if (s->failed) {
        return -1;
    }
    int64_t n_rules = s->n_rules;
    int32_t *numbering = calloc((size_t)n_rules, sizeof(int32_t));
    int32_t *ordered = malloc((size_t)n_rules * sizeof(int32_t));
    int32_t *stack = malloc((size_t)(n_rules + 1) * sizeof(int32_t));
    if (numbering == NULL || ordered == NULL || stack == NULL
        || reserve_out(s, s->n_slots + n_rules) != 0) {
        free(numbering);
        free(ordered);
        free(stack);
        return -1;
    }
    const int32_t *nxt = s->nxt, *val = s->val, *rule_guard = s->rule_guard;
    int64_t n_ordered = 0;
    int64_t top = 0;
    stack[top++] = nxt[rule_guard[0]];
    while (top > 0) {
        int32_t symbol = stack[--top];
        while (val[symbol] >= 0) {
            int32_t v = val[symbol];
            if (v & 1) {
                int32_t serial = (v - 1) >> 1;
                if (serial != 0 && numbering[serial] == 0) {
                    ordered[n_ordered++] = serial;
                    numbering[serial] = (int32_t)n_ordered;
                    stack[top++] = nxt[symbol];
                    symbol = nxt[rule_guard[serial]];
                    continue;
                }
            }
            symbol = nxt[symbol];
        }
    }
    int64_t length = 0;
    for (int64_t index = -1; index < n_ordered; index++) {
        int32_t serial = index < 0 ? 0 : ordered[index];
        int64_t at = length++;
        for (int32_t symbol = nxt[rule_guard[serial]]; val[symbol] >= 0; symbol = nxt[symbol]) {
            int32_t v = val[symbol];
            s->out[length++] = (v & 1) ? 2 * (int64_t)numbering[(v - 1) >> 1] + 1 : v;
        }
        s->out[at] = length - at - 1;
    }
    s->out_len = length;
    free(numbering);
    free(ordered);
    free(stack);
    return length;
}

/* Copy the last seq_spans / seq_freeze result into dst and release it. */
void seq_take(Seq *s, int64_t *dst) {
    memcpy(dst, s->out, (size_t)s->out_len * sizeof(int64_t));
    free(s->out);
    s->out = NULL;
    s->out_len = 0;
}
