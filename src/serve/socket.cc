#include "serve/socket.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <stdexcept>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

#include "dispatch/json.hh"
#include "driver/report.hh"
#include "obs/counters.hh"

namespace stems::serve {

namespace {

[[noreturn]] void
fail(const std::string &what)
{
    throw std::runtime_error("serve: " + what + ": " +
                             std::strerror(errno));
}

bool
isUnix(const std::string &addr)
{
    return addr.rfind("unix:", 0) == 0;
}

/** host:port → {host, port}; throws on a missing port. */
std::pair<std::string, std::string>
splitHostPort(const std::string &addr)
{
    const size_t colon = addr.rfind(':');
    if (colon == std::string::npos || colon + 1 == addr.size())
        throw std::runtime_error(
            "serve: bad endpoint \"" + addr +
            "\" (want unix:/path or host:port)");
    return {addr.substr(0, colon), addr.substr(colon + 1)};
}

sockaddr_un
unixAddr(const std::string &addr)
{
    const std::string path = addr.substr(5);
    sockaddr_un sa = {};
    sa.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof(sa.sun_path))
        throw std::runtime_error("serve: unix socket path \"" + path +
                                 "\" empty or too long");
    std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
    return sa;
}

int
tcpConnectOnce(const std::string &host, const std::string &port)
{
    addrinfo hints = {};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *res = nullptr;
    if (getaddrinfo(host.empty() ? nullptr : host.c_str(),
                    port.c_str(), &hints, &res) != 0)
        return -1;
    int fd = -1;
    for (addrinfo *ai = res; ai; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype,
                      ai->ai_protocol);
        if (fd < 0)
            continue;
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0)
            break;
        ::close(fd);
        fd = -1;
    }
    freeaddrinfo(res);
    if (fd >= 0) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    return fd;
}

} // anonymous namespace

int
listenOn(const std::string &addr)
{
    if (isUnix(addr)) {
        const sockaddr_un sa = unixAddr(addr);
        ::unlink(sa.sun_path);  // stale socket from a killed daemon
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            fail("socket(" + addr + ")");
        if (::bind(fd, reinterpret_cast<const sockaddr *>(&sa),
                   sizeof(sa)) != 0) {
            ::close(fd);
            fail("bind(" + addr + ")");
        }
        if (::listen(fd, 64) != 0) {
            ::close(fd);
            fail("listen(" + addr + ")");
        }
        return fd;
    }

    const auto [host, port] = splitHostPort(addr);
    addrinfo hints = {};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE;
    addrinfo *res = nullptr;
    if (getaddrinfo(host.empty() ? nullptr : host.c_str(),
                    port.c_str(), &hints, &res) != 0)
        throw std::runtime_error("serve: cannot resolve \"" + addr +
                                 "\"");
    int fd = -1;
    for (addrinfo *ai = res; ai; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype,
                      ai->ai_protocol);
        if (fd < 0)
            continue;
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
            ::listen(fd, 64) == 0)
            break;
        ::close(fd);
        fd = -1;
    }
    freeaddrinfo(res);
    if (fd < 0)
        fail("bind/listen(" + addr + ")");
    return fd;
}

int
acceptOn(int listenFd)
{
    for (;;) {
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd >= 0) {
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof(one));
            return fd;
        }
        if (errno == EINTR)
            continue;
        return -1;  // listener closed (daemon shutdown)
    }
}

int
connectTo(const std::string &addr, uint32_t deadlineMs)
{
    using Clock = std::chrono::steady_clock;
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(deadlineMs);
    for (;;) {
        int fd = -1;
        if (isUnix(addr)) {
            const sockaddr_un sa = unixAddr(addr);
            fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
            if (fd >= 0 &&
                ::connect(fd,
                          reinterpret_cast<const sockaddr *>(&sa),
                          sizeof(sa)) != 0) {
                ::close(fd);
                fd = -1;
            }
        } else {
            const auto [host, port] = splitHostPort(addr);
            fd = tcpConnectOnce(host, port);
        }
        if (fd >= 0)
            return fd;
        if (Clock::now() >= deadline)
            throw std::runtime_error("serve: cannot connect to \"" +
                                     addr + "\"");
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
}

bool
sendFrame(int fd, const std::string &payload)
{
    const std::string frame = dispatch::frameBytes(payload);
    if (!dispatch::writeAll(fd, frame))
        return false;
    obs::count(&obs::Counters::socketBytesSent, frame.size());
    return true;
}

bool
recvFrame(int fd, dispatch::FrameDecoder &decoder, std::string &out)
{
    char buf[1 << 16];
    for (;;) {
        if (decoder.next(out))
            return true;
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        decoder.feed(buf, static_cast<size_t>(n));
        obs::count(&obs::Counters::socketBytesReceived,
                   static_cast<uint64_t>(n));
    }
}

std::string
encodeHello(const std::string &role)
{
    driver::JsonWriter j;
    j.beginObject();
    j.key("type").value("hello");
    j.key("protocol").value(uint64_t{dispatch::kProtocolVersion});
    j.key("role").value(role);
    j.key("pid").value(static_cast<uint64_t>(::getpid()));
    j.endObject();
    return j.str();
}

bool
readHello(int fd, dispatch::FrameDecoder &decoder,
          const std::string &expectRole, Hello &out, std::string &err)
{
    // the hello is the first frame on a fresh connection, so every
    // byte fed before it completes belongs to it — capping the fed
    // total rejects oversized frames without ever buffering them
    std::string payload;
    size_t fed = 0;
    char buf[1024];
    for (;;) {
        try {
            if (decoder.next(payload))
                break;
        } catch (const std::exception &e) {
            err = std::string("corrupt hello frame: ") + e.what();
            return false;
        }
        if (fed >= kHelloMaxBytes) {
            err = "hello frame exceeds " +
                  std::to_string(kHelloMaxBytes) + " bytes";
            return false;
        }
        const size_t want =
            std::min(sizeof(buf), kHelloMaxBytes - fed + 1);
        const ssize_t n = ::read(fd, buf, want);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            err = "peer closed before hello";
            return false;
        }
        decoder.feed(buf, static_cast<size_t>(n));
        fed += static_cast<size_t>(n);
        obs::count(&obs::Counters::socketBytesReceived,
                   static_cast<uint64_t>(n));
    }
    if (payload.size() > kHelloMaxBytes) {
        err = "hello frame exceeds " +
              std::to_string(kHelloMaxBytes) + " bytes";
        return false;
    }
    try {
        const dispatch::JsonValue msg = dispatch::parseJson(payload);
        if (dispatch::messageType(msg) != "hello") {
            err = "expected hello, got \"" +
                  dispatch::messageType(msg) + "\"";
            return false;
        }
        out.protocol =
            static_cast<uint32_t>(msg.at("protocol").asU64());
        out.role = msg.at("role").asString();
        if (const dispatch::JsonValue *pid = msg.find("pid"))
            out.pid = static_cast<int64_t>(pid->asU64());
    } catch (const std::exception &e) {
        err = std::string("bad hello: ") + e.what();
        return false;
    }
    if (out.protocol != dispatch::kProtocolVersion) {
        err = "protocol mismatch (peer " +
              std::to_string(out.protocol) + ", local " +
              std::to_string(dispatch::kProtocolVersion) + ")";
        return false;
    }
    if (out.role != expectRole) {
        err = "unexpected peer role \"" + out.role + "\" (want \"" +
              expectRole + "\")";
        return false;
    }
    return true;
}

std::string
encodeError(const std::string &message)
{
    driver::JsonWriter j;
    j.beginObject();
    j.key("type").value("error");
    j.key("message").value(message);
    j.endObject();
    return j.str();
}

} // namespace stems::serve
