/**
 * @file
 * Logging and invariant-checking helpers, in the spirit of gem5's
 * logging.hh: panic() for simulator bugs, fatal() for user errors,
 * warn()/inform() for status.
 */

#ifndef DBPSIM_COMMON_LOG_HH
#define DBPSIM_COMMON_LOG_HH

#include <sstream>
#include <string>

namespace dbpsim {

/** Verbosity levels for status messages. */
enum class LogLevel { Quiet = 0, Warn = 1, Info = 2, Debug = 3 };

/**
 * Global log verbosity (default: Warn). Stored atomically so campaign
 * worker threads can consult it while another thread adjusts it.
 */
LogLevel logLevel();

/** Set the global log verbosity (atomic; callable from any thread). */
void setLogLevel(LogLevel level);

/**
 * This thread's job tag — prefixed to every log line the thread emits
 * so interleaved parallel campaign output stays attributable
 * ("[dbpsim:warn] (fig4:W04/DBP) ..."). Empty when unset.
 */
const std::string &logJobTag();

/**
 * RAII scope installing a job tag on the current thread; restores the
 * previous tag (nesting-safe) on destruction. Campaign workers wrap
 * each job in one of these.
 */
class LogJobScope
{
  public:
    explicit LogJobScope(std::string tag);
    ~LogJobScope();

    LogJobScope(const LogJobScope &) = delete;
    LogJobScope &operator=(const LogJobScope &) = delete;

  private:
    std::string saved_;
};

namespace detail {

/** Emit one formatted log line to stderr if @p level is enabled. */
void emit(LogLevel level, const char *tag, const std::string &msg);

/** Abort with a message: simulator bug (never user-triggered). */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Exit(1) with a message: user/configuration error. */
[[noreturn]] void fatalImpl(const std::string &msg);

/**
 * DBP_ASSERT's failure path, out of line so a check costs its call
 * site one compare and branch: @p write streams the message.
 */
template <typename Write>
[[noreturn, gnu::cold, gnu::noinline]] void
assertFailed(const char *file, int line, const char *cond, Write &&write)
{
    std::ostringstream os;
    os << "assertion '" << cond << "' failed: ";
    write(os);
    panicImpl(file, line, os.str());
}

} // namespace detail

/** Report a user/configuration error and exit. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    detail::fatalImpl(os.str());
}

/** Warn about suspicious but survivable conditions. */
template <typename... Args>
void
warn(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    detail::emit(LogLevel::Warn, "warn", os.str());
}

/** Informative status message. */
template <typename... Args>
void
inform(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    detail::emit(LogLevel::Info, "info", os.str());
}

} // namespace dbpsim

/**
 * Abort on an internal inconsistency (simulator bug). Active in all
 * build types: the simulator's correctness claims depend on these.
 */
#define DBP_ASSERT(cond, msg)                                              \
    do {                                                                   \
        if (!(cond)) [[unlikely]] {                                        \
            ::dbpsim::detail::assertFailed(                                \
                __FILE__, __LINE__, #cond,                                 \
                [&](std::ostream &dbp_assert_os_) {                        \
                    dbp_assert_os_ << msg;                                 \
                });                                                        \
        }                                                                  \
    } while (0)

/** Unconditional panic. */
#define DBP_PANIC(msg)                                                     \
    do {                                                                   \
        std::ostringstream dbp_panic_os_;                                  \
        dbp_panic_os_ << msg;                                              \
        ::dbpsim::detail::panicImpl(__FILE__, __LINE__,                    \
                                    dbp_panic_os_.str());                  \
    } while (0)

#endif // DBPSIM_COMMON_LOG_HH
