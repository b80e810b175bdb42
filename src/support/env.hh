/**
 * @file
 * Strict boolean environment-flag parsing.
 *
 * Several switches (HC_FASTPATH, HC_CHECK, HC_GUARD) are read from
 * the environment. Historically each call site open-coded its own parse
 * with different lenient rules ("anything but '0' is on"), so a typo
 * like HC_CHECK=ture silently enabled — or HC_FASTPATH=off silently
 * ENABLED — the feature. envFlag() parses strictly: a recognized
 * on/off literal yields On/Off, everything else (including empty) is
 * Unset and warns once per variable, so the caller's default applies.
 */

#ifndef HC_SUPPORT_ENV_HH
#define HC_SUPPORT_ENV_HH

namespace hc {

/** Result of parsing a boolean environment variable. */
enum class EnvFlag {
    Unset, //!< absent, empty, or unrecognized (caller default wins)
    Off,   //!< "0", "false", "off", "no" (case-insensitive)
    On,    //!< "1", "true", "on", "yes" (case-insensitive)
};

/**
 * Parse the environment variable @p name strictly.
 *
 * Unrecognized non-empty values warn once per variable name (the
 * process keeps running with the caller's default — a garbled flag
 * must not silently flip a feature).
 */
EnvFlag envFlag(const char *name);

/** @return envFlag(@p name) as a bool, @p fallback when Unset. */
bool envFlagOr(const char *name, bool fallback);

} // namespace hc

#endif // HC_SUPPORT_ENV_HH
